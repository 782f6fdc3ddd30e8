"""Batch command-line front end.

Subcommands: ``simulate`` (write a synthetic dataset), ``psd`` (per-signal
spectra plus healthy confidence bands), ``detect`` (statistic curves and a
detection report), ``roc`` (alpha sweeps with AUC) and ``report`` (render
saved reports as an aligned summary table).

Outputs are plot-ready CSVs (``.`` decimal, ``,`` separator, LF endings) and
are byte-identical for a fixed configuration and seed.  Exit codes: 0 on
success, 2 for validation problems, 3 for computation failures, 4 for I/O
failures.  The ``GWDETECT_OUTDIR`` environment variable overrides the
configured output directory (an explicit ``--out`` still wins).

Options can also come from a ``key = value`` config file with section
headers, e.g.::

    [data]
    manifest = dataset/manifest.csv
    window = first-packet
    [welch]
    segment_length = 100
    nfft = 2000
    [detect]
    metrics = f,fm,z
    alphas = 0.05
    [output]
    out_dir = results

Command-line flags override config values.
"""

import argparse
import configparser
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import fmt
from .detectors import experimental_band, f_statistic, fm_statistic, \
    theoretical_band, z_statistic
from .pipeline import (
    METRICS,
    DatasetManifest,
    DetectionReport,
    compute_path_scores,
    load_set,
    roc_sweep,
    run_inspection,
    summary_table,
)
from .simulate import ToneBurstSpec, attenuation_ladder, synth_dataset
from .spectral import WelchConfig
from .statdist import validate_alpha

OUTDIR_ENV = "GWDETECT_OUTDIR"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", str(text))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _load_config(path) -> dict:
    """``section.key`` -> value from a config file; none given reads as empty."""
    if not path:
        return {}
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cp.read(path)
    if not read:
        raise ValueError(f"config file {path} not found or unreadable")
    return {f"{sec}.{key}": value
            for sec in cp.sections() for key, value in cp.items(sec)}


def _opt(cfg: dict, flag, key: str, default=None):
    """flag > config > default."""
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _out_dir(args, cfg: dict) -> Path:
    """--out > $GWDETECT_OUTDIR > [output] out_dir."""
    out_dir = args.out or os.environ.get(OUTDIR_ENV) or cfg.get("output.out_dir")
    if not out_dir:
        raise ValueError(f"an output directory is required (--out, config, or {OUTDIR_ENV})")
    return Path(out_dir)


@dataclass
class RunConfig:
    manifest: DatasetManifest
    window: str
    paths: list
    set_id: str
    welch: WelchConfig
    metrics: list
    alphas: list
    band: tuple
    holdout: int
    seed: int
    out_dir: Path


def _bad_option(name: str, text, expected: str) -> ValueError:
    return ValueError(f"{name} {text!r}: expected {expected}")


def _parse_band(text):
    if text in (None, "", "full"):
        return None
    try:
        lo, hi = (float(s) for s in str(text).split(":"))
    except ValueError:
        raise _bad_option("--band", text, "f_lo:f_hi in Hz, or 'full'") from None
    return (lo, hi)


def _parse_alphas(text) -> list:
    alphas = []
    for a in str(text).split(","):
        if a:
            try:
                alphas.append(validate_alpha(a))
            except ValueError:
                raise _bad_option("--alpha", a, "a false-alarm probability in (0, 1]") from None
    if not alphas:
        raise ValueError("alpha list must not be empty")
    return alphas


def _build_runconfig(args) -> RunConfig:
    cfg = _load_config(args.config)
    manifest_path = _opt(cfg, getattr(args, "manifest", None), "data.manifest")
    if not manifest_path:
        raise ValueError("a manifest is required (--manifest or [data] manifest)")
    manifest = DatasetManifest.load(manifest_path)

    welch = WelchConfig(
        segment_length=int(_opt(cfg, args.segment_length, "welch.segment_length", 100)),
        overlap_fraction=float(_opt(cfg, args.overlap, "welch.overlap", 0.5)),
        nfft=int(_opt(cfg, args.nfft, "welch.nfft", 2000)),
        window_kind=str(_opt(cfg, args.window_kind, "welch.window_kind", "hamming")),
        detrend_mean=not bool(getattr(args, "no_detrend", False)
                              or cfg.get("welch.detrend", "1") == "0"),
    )
    window = _opt(cfg, getattr(args, "window", None), "data.window")
    if window is None:
        raise ValueError("an analysis window is required (--window or [data] window)")
    if window not in manifest.packet_windows:
        raise ValueError(
            f"window {window!r} is not defined by the manifest "
            f"(available: {sorted(manifest.packet_windows)})"
        )
    length = manifest.packet_windows[window][1]
    if length < welch.segment_length:
        raise ValueError(f"window {window!r} is {length} samples, shorter than "
                         f"segment_length {welch.segment_length}")
    path_flag = _opt(cfg, getattr(args, "path", None), "data.path")
    if path_flag and path_flag not in manifest.paths():
        raise ValueError(f"path {path_flag!r} is not in the manifest "
                         f"(available: {manifest.paths()})")
    paths = [path_flag] if path_flag else manifest.paths()
    set_id = _opt(cfg, getattr(args, "set_id", None), "data.set")
    for path in paths:
        if set_id is not None and set_id not in manifest.sets_for(path):
            raise ValueError(f"set {set_id!r} is not in path {path!r} "
                             f"(available: {manifest.sets_for(path)})")

    metrics_text = _opt(cfg, getattr(args, "metrics", None), "detect.metrics",
                        ",".join(METRICS))
    metrics = [m for m in str(metrics_text).split(",") if m]
    if not metrics:
        raise ValueError("metrics list must not be empty")
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; choose from {METRICS}")
    if len(set(metrics)) < len(metrics):
        raise _bad_option("--metrics", metrics_text, "each metric at most once")

    alphas_text = _opt(cfg, getattr(args, "alpha", None), "detect.alphas", "0.05")
    alphas = _parse_alphas(alphas_text)

    band = _parse_band(_opt(cfg, getattr(args, "band", None), "detect.band"))

    out_dir = _out_dir(args, cfg)

    holdout = int(_opt(cfg, getattr(args, "holdout", None), "detect.holdout", 0))
    if holdout < 0:
        raise ValueError("holdout must be >= 0")
    seed = _opt(cfg, getattr(args, "seed", None), "detect.seed")
    return RunConfig(
        manifest=manifest,
        window=window,
        paths=paths,
        set_id=set_id,
        welch=welch,
        metrics=metrics,
        alphas=alphas,
        band=band,
        holdout=holdout,
        seed=None if seed is None else int(seed),
        out_dir=out_dir,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_psd(args) -> int:
    rc = _build_runconfig(args)
    man = rc.manifest
    alpha = rc.alphas[0]
    for path in rc.paths:
        set_ids = [rc.set_id] if rc.set_id else man.sets_for(path)
        for s in set_ids:
            loaded = load_set(man, path, s, rc.window, rc.welch, holdout=0)
            freq_col = _freq_column(loaded.ensemble.freq_grid)
            # file index: the record's position among all entries of the path
            index = [i for i, e in enumerate(man.entries_for(path)) if e.set_id == s]
            for i, entry, psd in zip(index, loaded.entries, loaded.psds):
                lines = ["freq,psd"]
                lines.extend(f"{f},{v:.12g}" for f, v in zip(freq_col, psd.values.tolist()))
                stem = _slug(Path(entry.file).stem)
                _write(rc.out_dir / f"psd_{_slug(path)}_{i:03d}_{stem}.csv",
                       "\n".join(lines) + "\n")
            ensemble = loaded.ensemble
            theo = theoretical_band(ensemble.mean_estimate(), alpha)
            expe = experimental_band([p.values for p in ensemble.psds], alpha)
            for tag, bandc in (("theoretical", theo), ("experimental", expe)):
                lines = ["freq,lower,upper"]
                lines.extend(f"{f},{lo:.12g},{hi:.12g}" for f, lo, hi in
                             zip(freq_col, bandc.lower.tolist(), bandc.upper.tolist()))
                _write(rc.out_dir / f"band_{tag}_{_slug(path)}_{_slug(s)}.csv",
                       "\n".join(lines) + "\n")
    print(f"psd curves written to {rc.out_dir}")
    return 0


def _freq_column(freqs) -> list:
    """The formatted frequency column shared by every curve on one grid."""
    return [fmt(f) for f in freqs.tolist()]


def _curve_csv(series, freq_col) -> str:
    bounds = f",{series.lower_threshold:.12g},{series.upper_threshold:.12g}"
    lines = ["freq,value,lower,upper"]
    lines.extend(f"{f},{v:.12g}{bounds}" for f, v in zip(freq_col, series.values.tolist()))
    return "\n".join(lines) + "\n"


def cmd_detect(args) -> int:
    rc = _build_runconfig(args)
    man = rc.manifest
    reports = []
    for path in rc.paths:
        scores = compute_path_scores(man, path, rc.window, rc.welch, rc.metrics,
                                     holdout=rc.holdout, seed=rc.seed,
                                     band=rc.band, set_id=rc.set_id)
        for alpha in rc.alphas:
            report = run_inspection(scores, alpha)
            reports.append(report)
            tag = f"{_slug(path)}_{_slug(rc.window)}_a{fmt(alpha)}"
            _write(rc.out_dir / f"report_{tag}.csv", report.to_csv())
            lines = ["case_id,metric,label,verdict"]
            lines.extend(f"{cid},{m},{lbl},{v}" for cid, m, lbl, v in report.verdicts)
            _write(rc.out_dir / f"verdicts_{tag}.csv", "\n".join(lines) + "\n")
        # per-signal statistic curves against each set's baseline ensemble
        curve_metrics = [m for m in rc.metrics if m in ("f", "fm", "z")]
        for loaded in scores.sets:
            ensemble = loaded.ensemble
            freq_col = _freq_column(ensemble.freq_grid)
            for i, j in enumerate(loaded.inspect):
                psd = loaded.psds[j]
                stem = _slug(Path(loaded.entries[j].file).stem)
                for metric in curve_metrics:
                    for alpha in rc.alphas:
                        if metric == "f":
                            series = f_statistic(ensemble.psds[0], psd, alpha, rc.band)
                        elif metric == "fm":
                            series = fm_statistic(ensemble, psd, alpha, rc.band)
                        else:
                            series = z_statistic(ensemble, psd, alpha, rc.band)
                        _write(rc.out_dir / f"stat_{metric}_{_slug(path)}_{_slug(loaded.set_id)}"
                               f"_{i:03d}_{stem}_a{fmt(alpha)}.csv",
                               _curve_csv(series, freq_col))
    _write(rc.out_dir / "summary.txt", summary_table(reports))
    print(f"detection report written to {rc.out_dir}")
    return 0


def _parse_alpha_grid(text):
    if text in (None, ""):
        return None
    expected = "lo:hi:n with lo and hi in (0, 1] and n >= 1"
    try:
        lo, hi, n = str(text).split(":")
        lo, hi, n = validate_alpha(lo), validate_alpha(hi), int(n)
    except ValueError:
        raise _bad_option("--alpha-grid", text, expected) from None
    if n < 1:
        raise _bad_option("--alpha-grid", text, expected)
    return np.logspace(np.log10(lo), np.log10(hi), n)


def cmd_roc(args) -> int:
    rc = _build_runconfig(args)
    grid = _parse_alpha_grid(getattr(args, "alpha_grid", None))
    curves = []  # every curve first, so a metric that cannot be swept writes nothing
    for path in rc.paths:
        scores = compute_path_scores(rc.manifest, path, rc.window, rc.welch, rc.metrics,
                                     holdout=rc.holdout, seed=rc.seed,
                                     band=rc.band, set_id=rc.set_id)
        curves.extend((path, metric, roc_sweep(scores, metric, grid)) for metric in rc.metrics)
    for path, metric, curve in curves:
        _write(rc.out_dir / f"roc_{_slug(path)}_{_slug(rc.window)}_{metric}.csv",
               curve.to_csv())
        print(f"{path} {metric}: auc = {curve.auc:.6f}")
    return 0


def cmd_simulate(args) -> int:
    out_dir = _out_dir(args, _load_config(args.config))
    burst = ToneBurstSpec(
        center_freq=float(args.center_freq),
        n_cycles=int(args.cycles),
        amplitude=float(args.amplitude),
        envelope=args.envelope,
        sample_rate=float(args.sample_rate),
    )
    ladder = attenuation_ladder(int(args.ladder_steps), float(args.ladder_start),
                                float(args.ladder_stop)) if int(args.ladder_steps) else []
    manifest = synth_dataset(
        out_dir,
        n_baseline=int(args.n_baseline),
        damage_specs=ladder,
        noise_std=args.noise_std if args.noise_std is None else float(args.noise_std),
        seed=int(args.seed),
        burst=burst,
        n_per_damage=int(args.n_per_damage),
        arrival_delay=float(args.arrival),
        path_gain=float(args.path_gain),
        n_samples=int(args.n_samples),
        snr_db=float(args.snr_db),
    )
    print(manifest.base_dir / "manifest.csv")
    return 0


def cmd_report(args) -> int:
    reports = []
    for p in args.reports:
        try:
            reports.append(DetectionReport.from_csv(Path(p).read_text()))
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
    text = summary_table(reports)
    if args.out:
        _write(Path(args.out), text)
        print(f"summary written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file with section headers")
    p.add_argument("--manifest", help="dataset manifest file")
    p.add_argument("--path", help="actuator-sensor path id (default: all paths)")
    p.add_argument("--set-id", dest="set_id", help="restrict to one set id")
    p.add_argument("--window", help="named packet window from the manifest")
    p.add_argument("--segment-length", dest="segment_length", type=int,
                   help="estimation window length L (default 100)")
    p.add_argument("--overlap", type=float, help="window overlap fraction (default 0.5)")
    p.add_argument("--nfft", type=int, help="FFT length (default 2000)")
    p.add_argument("--window-kind", dest="window_kind",
                   choices=("hamming", "bartlett", "rectangular"),
                   help="taper kind (default hamming)")
    p.add_argument("--no-detrend", dest="no_detrend", action="store_true",
                   help="skip mean subtraction")
    p.add_argument("--metrics", help=f"comma list from {','.join(METRICS)}")
    p.add_argument("--alpha", help="comma list of false-alarm probabilities (default 0.05)")
    p.add_argument("--band", help="verdict band f_lo:f_hi in Hz (default: manifest band)")
    p.add_argument("--holdout", type=int, help="held-out healthy records per set (default 0)")
    p.add_argument("--seed", type=int, help="shuffle seed for the baseline split")
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwdetect",
        description="Statistical damage detection for guided-wave records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psd", help="per-signal PSD curves plus healthy bands")
    _add_common(p)
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("detect", help="statistic curves and detection report")
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("roc", help="alpha-sweep ROC curves with AUC")
    _add_common(p)
    p.add_argument("--alpha-grid", dest="alpha_grid",
                   help="logarithmic sweep lo:hi:n (default 1e-6:1:61)")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("simulate", help="write a synthetic dataset")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", help="dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-baseline", dest="n_baseline", type=int, default=20)
    p.add_argument("--ladder-steps", dest="ladder_steps", type=int, default=6,
                   help="attenuation-ladder damage steps (0 for baseline-only)")
    p.add_argument("--ladder-start", dest="ladder_start", type=float, default=0.9)
    p.add_argument("--ladder-stop", dest="ladder_stop", type=float, default=0.5)
    p.add_argument("--n-per-damage", dest="n_per_damage", type=int, default=5)
    p.add_argument("--snr-db", dest="snr_db", type=float, default=40.0)
    p.add_argument("--noise-std", dest="noise_std", default=None,
                   help="absolute noise level (overrides --snr-db)")
    p.add_argument("--center-freq", dest="center_freq", type=float, default=250e3)
    p.add_argument("--cycles", type=int, default=5)
    p.add_argument("--envelope", choices=("hanning", "hamming"), default="hanning")
    p.add_argument("--amplitude", type=float, default=90.0)
    p.add_argument("--sample-rate", dest="sample_rate", type=float, default=24e6)
    p.add_argument("--n-samples", dest="n_samples", type=int, default=8000)
    p.add_argument("--arrival", type=float, default=50e-6,
                   help="packet arrival delay in seconds")
    p.add_argument("--path-gain", dest="path_gain", type=float, default=0.05)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="render saved detection reports as a table")
    p.add_argument("reports", nargs="+", help="report CSV files from 'detect'")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
