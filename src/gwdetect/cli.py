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

Command-line flags override config values.  A value that cannot be read
names the flag, or the config file and ``[section] key``, it came from; every
option is checked before any record is read.  That includes an alpha of
2**-53 or less, where ``1 - alpha/2`` rounds to 1 and no critical point
exists.  A config file that is not UTF-8, or that ``configparser`` cannot
parse, names its file and line.  ``report`` names the file and line of a
report that is not UTF-8 or holds a line ``DetectionReport.from_csv`` refuses.
Scores, decisions and ``stat_*`` curves come from ``pipeline``; ``detect``
writes each verdict row straight from a case table and its ``damaged``
decision, and ``_write_curve`` writes every curve file.

A ``psd_*`` or ``band_*`` curve file is one row per frequency of the Welch
grid; a ``stat_*`` file is one row per frequency of the verdict band
(``--band``, else ``[detect] band``, else the manifest's band), the bins a
verdict reads, and ``--band full`` gives it the whole grid.  A file's fixed
text (the header and the formatted frequencies) is built once per set as a
template with a ``%.12g`` slot for each value; ``_write_curve`` fills a
file's values in with one ``%``.

``simulate`` and the curve files of ``psd`` are written on every CPU the
process may run on (``dataio.fan_out``): the command's process writes its own
share of the files, and one forked child for each other CPU writes the rest;
``taskset -c 0`` runs them all in the command's process, and the outputs are
the same bytes either way.  ``detect`` and ``psd`` work one path at a time, so
they hold one path's records at once.  ``detect`` scores a path, writes its
reports and verdicts, and then writes its thresholds and its ``stat_*``
curves in its own process: a set's curves of a metric are one array of
in-band rows, a few rows per file, too little to pay for a fork.
``summary.txt`` is written last.
"""

import argparse
import configparser
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import _utf8_text, fan_out, fmt
from .detectors import DAMAGED, HEALTHY, _band_mask, experimental_band, theoretical_band
from .pipeline import (
    METRICS,
    DatasetManifest,
    DetectionReport,
    compute_path_scores,
    load_set,
    roc_sweep,
    run_inspection,
    statistic_curves,
    summary_table,
)
from .simulate import ToneBurstSpec, attenuation_ladder, synth_dataset
from .spectral import WINDOW_KINDS, WelchConfig
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
    try:
        data = Path(path).read_bytes()
    except OSError:
        raise ValueError(f"config file {path} not found or unreadable") from None
    text = _utf8_text(path, data)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text, source=str(path))
        return {f"{sec}.{key}": value
                for sec in cp.sections() for key, value in cp.items(sec)}
    except configparser.Error as exc:
        raise _config_error(path, text, exc) from None


def _config_error(path, text: str, exc: configparser.Error) -> ValueError:
    """Why ``configparser`` cannot read the config file ``path`` of ``text``,
    as ``<file>:<line>: <reason>``, or as ``<file>: [section] key: <reason>``
    for a value it cannot interpolate."""
    if isinstance(exc, configparser.InterpolationError):
        return ValueError(f"{path}: [{exc.section}] {exc.option}: {exc.message}")
    if isinstance(exc, configparser.DuplicateSectionError):
        line, reason = exc.lineno, f"section [{exc.section}] is given twice"
    elif isinstance(exc, configparser.DuplicateOptionError):
        line, reason = exc.lineno, f"key {exc.option!r} is given twice in [{exc.section}]"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        line, reason = exc.lineno, f"{exc.line.strip()!r} comes before any [section] header"
    else:  # ParsingError: its first bad line
        line = exc.errors[0][0]
        bad = text.split("\n")[line - 1].strip()
        reason = f"{bad!r} is neither a [section] header nor a 'key = value' line"
    return ValueError(f"{path}:{line}: {reason}")


def _lookup(args, cfg: dict, dest: str, key: str):
    """An option's raw value and where it came from: its flag, else the config
    file and ``[section] key``; ``(None, None)`` when neither sets it."""
    value = getattr(args, dest, None)
    if value is not None:
        return value, "--" + dest.replace("_", "-")
    if key not in cfg:
        return None, None
    section, name = key.split(".", 1)
    return cfg[key], f"{args.config}: [{section}] {name}"


def _opt(args, cfg: dict, dest: str, key: str, default=None, parse=str, expected=""):
    """flag > config > default, converted by ``parse``; a value it rejects
    names its flag, or the config file and ``[section] key`` it came from."""
    value, where = _lookup(args, cfg, dest, key)
    if where is None:
        return default
    try:
        return parse(value)
    except ValueError:
        raise _bad_option(where, value, expected) from None


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
    band: tuple         # None: the full grid
    holdout: int
    seed: int
    out_dir: Path


def _bad_option(name: str, text, expected: str) -> ValueError:
    return ValueError(f"{name} {text!r}: expected {expected}")


def _parse_band(text, grid):
    """``None`` for the full grid, else ``(f_lo, f_hi)`` enclosing a frequency
    of ``grid``."""
    if text in ("", "full"):
        return None
    lo, hi = (float(s) for s in str(text).split(":"))
    _band_mask(grid, (lo, hi))
    return (lo, hi)


def _non_negative_int(text) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _noise_level(text) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(text)
    return value


def _parse_alpha(text) -> float:
    """A false-alarm probability whose two-sided level ``1 - alpha/2`` is
    below 1 in double precision, so that its critical points exist: alpha
    above 2**-53."""
    alpha = validate_alpha(text)
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(text)
    return alpha


def _parse_list(text, item) -> list:
    """A nonempty comma list of distinct values, each converted by ``item``."""
    values = [item(v) for v in str(text).split(",") if v]
    if not values or len(set(values)) < len(values):
        raise ValueError(text)
    return values


def _member(choices):
    """A parser that accepts one of ``choices`` and nothing else."""
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(text)
        return text
    return parse


def _parse_bool(text) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[str(text).lower()]
    except KeyError:
        raise ValueError(text) from None


def _build_runconfig(args, *, scores: bool = True) -> RunConfig:
    """The run's settings, every one checked before any record is read;
    ``scores`` says whether the command scores in the band, and with it
    whether the manifest's own band must lie on the Welch grid."""
    cfg = _load_config(args.config)
    manifest_path = _opt(args, cfg, "manifest", "data.manifest")
    if not manifest_path:
        raise ValueError("a manifest is required (--manifest or [data] manifest)")
    manifest = DatasetManifest.load(manifest_path)

    fields = dict(
        segment_length=_opt(args, cfg, "segment_length", "welch.segment_length", 100,
                            int, "an integer"),
        overlap_fraction=_opt(args, cfg, "overlap", "welch.overlap", 0.5, float, "a number"),
        nfft=_opt(args, cfg, "nfft", "welch.nfft", 2000, int, "an integer"),
        window_kind=_opt(args, cfg, "window_kind", "welch.window_kind", "hamming",
                         lambda text: _member(WINDOW_KINDS)(text.lower()),
                         f"one of {', '.join(WINDOW_KINDS)}"),
        detrend_mean=_opt(args, cfg, "detrend", "welch.detrend", True, _parse_bool,
                          "a boolean: 1, yes, true, on or 0, no, false, off"),
    )
    try:
        welch = WelchConfig(**fields)
    except ValueError as exc:  # a combination: name every Welch option that was set
        given = (_lookup(args, cfg, dest, f"welch.{dest}")
                 for dest in ("segment_length", "overlap", "nfft", "window_kind"))
        raise ValueError(", ".join(f"{where} {value!r}" for value, where in given if where)
                         + f": {exc}") from None
    window = _opt(args, cfg, "window", "data.window")
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
    path_flag = _opt(args, cfg, "path", "data.path")
    if path_flag and path_flag not in manifest.paths():
        raise ValueError(f"path {path_flag!r} is not in the manifest "
                         f"(available: {manifest.paths()})")
    paths = [path_flag] if path_flag else manifest.paths()
    set_id = _opt(args, cfg, "set_id", "data.set")
    for path in paths:
        if set_id is not None and set_id not in manifest.sets_for(path):
            raise ValueError(f"set {set_id!r} is not in path {path!r} "
                             f"(available: {manifest.sets_for(path)})")

    metrics = _opt(args, cfg, "metrics", "detect.metrics", list(METRICS),
                   lambda text: _parse_list(text, _member(METRICS)),
                   f"a comma list of distinct metrics from {','.join(METRICS)}")
    alphas = _opt(args, cfg, "alpha", "detect.alphas", [0.05],
                  lambda text: _parse_list(text, _parse_alpha),
                  "a comma list of distinct false-alarm probabilities in (2**-53, 1], "
                  "2**-53 being about 1.1e-16")
    grid = welch.freq_grid(manifest.sample_rate)
    on_grid = (f"in Hz with f_lo <= f_hi and a frequency of the grid "
               f"(0 to {grid[-1]:g} Hz in steps of {grid[1]:g} Hz) between them")
    band = _opt(args, cfg, "band", "detect.band", manifest.band,
                lambda text: _parse_band(text, grid), f"f_lo:f_hi {on_grid}, or 'full'")
    if scores and manifest.band is not None and band is manifest.band:
        try:
            _band_mask(grid, band)
        except ValueError:
            raise _bad_option(f"{manifest_path}: band", ",".join(map(fmt, band)),
                              f"f_lo,f_hi {on_grid}") from None

    out_dir = _out_dir(args, cfg)

    holdout = _opt(args, cfg, "holdout", "detect.holdout", 0, _non_negative_int,
                   "a non-negative integer")
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
        seed=_opt(args, cfg, "seed", "detect.seed", None, _non_negative_int,
                  "a non-negative integer"),
        out_dir=out_dir,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_psd(args) -> int:
    rc = _build_runconfig(args, scores=False)
    for path in rc.paths:
        fan_out(_write_curve, _psd_curves(rc, path))
    print(f"psd curves written to {rc.out_dir}")
    return 0


def _psd_curves(rc: RunConfig, path: str):
    """A ``_write_curve`` task for each PSD and healthy band of ``psd`` on
    one path."""
    man = rc.manifest
    alpha = rc.alphas[0]
    set_ids = [rc.set_id] if rc.set_id is not None else man.sets_for(path)
    for s in set_ids:
        loaded = load_set(man, path, s, rc.window, rc.welch, holdout=0)
        freqs = loaded.ensemble.freq_grid
        psd_rows = _curve_template("freq,psd", freqs, 1)
        band_rows = _curve_template("freq,lower,upper", freqs, 2)
        # file index: the record's position among all entries of the path
        index = man.positions_for(path, s)
        for i, entry, psd in zip(index, loaded.entries, loaded.psds):
            stem = _slug(Path(entry.file).stem)
            yield (rc.out_dir / f"psd_{_slug(path)}_{i:03d}_{stem}.csv",
                   psd_rows, psd)
        for bandc in (theoretical_band(loaded.ensemble.mean_estimate(), alpha),
                      experimental_band(loaded.ensemble.members, alpha)):
            yield (rc.out_dir / f"band_{bandc.kind}_{_slug(path)}_{_slug(s)}.csv",
                   band_rows, bandc.lower, bandc.upper)


def _curve_template(header: str, freqs, columns: int) -> str:
    """The text of a plot-ready curve CSV with a ``%.12g`` slot for each value
    still to come: ``header``, then one row per frequency of ``freqs``
    holding the formatted frequency and ``columns`` slots, which
    ``_write_curve`` fills in.  The fixed text has its ``%`` escaped."""
    row = ",%.12g" * columns + "\n"
    cells = [fmt(f).replace("%", "%%") for f in freqs.tolist()]
    return header.replace("%", "%%") + "\n" + row.join([*cells, ""])


def _write_curve(path: Path, template: str, *columns) -> None:
    """Write a ``_curve_template`` with its array columns filled in, row by
    row, by one ``%``; a column of another length than the grid raises."""
    values = columns[0] if len(columns) == 1 else np.column_stack(columns).ravel()
    _write(path, template % tuple(values.tolist()))


def cmd_detect(args) -> int:
    rc = _build_runconfig(args)
    reports = []
    for path in rc.paths:
        scores = compute_path_scores(rc.manifest, path, rc.window, rc.welch, rc.metrics,
                                     holdout=rc.holdout, seed=rc.seed,
                                     band=rc.band, set_id=rc.set_id)
        for alpha in rc.alphas:
            report = run_inspection(scores, alpha)
            reports.append(report)
            tag = f"{_slug(path)}_{_slug(rc.window)}_a{fmt(alpha)}"
            _write(rc.out_dir / f"report_{tag}.csv", report.to_csv())
            _write_verdicts(rc.out_dir / f"verdicts_{tag}.csv", scores.cases, report.alpha)
        lines = ["set,metric,alpha,lower,upper"]
        for loaded in scores.sets:
            freqs = loaded.ensemble.freq_grid
            template = _curve_template("freq,value", freqs[_band_mask(freqs, scores.band)], 1)
            stems = [_slug(Path(loaded.entries[j].file).stem) for j in loaded.inspect]
            for metric, bounds, values in statistic_curves(loaded, rc.metrics, rc.alphas,
                                                           scores.band):
                lines.extend(f"{loaded.set_id},{metric},{fmt(a)},{lo:.12g},{hi:.12g}"
                             for a, lo, hi in bounds)
                for i, (stem, curve) in enumerate(zip(stems, values)):
                    _write_curve(rc.out_dir / f"stat_{metric}_{_slug(path)}_"
                                 f"{_slug(loaded.set_id)}_{i:03d}_{stem}.csv", template, curve)
        if len(lines) > 1:
            _write(rc.out_dir / f"thresholds_{_slug(path)}.csv", "\n".join(lines) + "\n")
    _write(rc.out_dir / "summary.txt", summary_table(reports))
    print(f"detection report written to {rc.out_dir}")
    return 0


def _write_verdicts(path: Path, cases: dict, alpha: float) -> None:
    """A verdict file: a row per case of each ``CaseTable`` in ``cases``, in
    metric and case order, decided by the table's ``damaged`` rule.  It is
    written a metric at a time, so that the whole text is never held."""
    with open(path, "w") as fh:
        fh.write("case_id,metric,label,verdict\n")
        for metric, table in cases.items():
            flags = table.damaged(alpha).tolist()
            fh.write("".join(f"{cid},{metric},{label},{DAMAGED if flag else HEALTHY}\n"
                             for cid, label, flag in zip(table.case_ids, table.labels, flags)))


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
    for flag, value in (("--seed", args.seed), ("--n-per-damage", args.n_per_damage)):
        if value < 0:
            raise _bad_option(flag, str(value), "a non-negative integer")
    if not math.isfinite(args.snr_db):
        raise _bad_option("--snr-db", str(args.snr_db), "a finite number")
    try:
        noise_std = None if args.noise_std is None else _noise_level(args.noise_std)
    except ValueError:
        raise _bad_option("--noise-std", args.noise_std, "a finite number >= 0") from None
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
        noise_std=noise_std,
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
        text = _utf8_text(p, Path(p).read_bytes())
        try:
            reports.append(DetectionReport.from_csv(text))
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
    p.add_argument("--segment-length", dest="segment_length",
                   help="estimation window length L (default 100)")
    p.add_argument("--overlap", help="window overlap fraction (default 0.5)")
    p.add_argument("--nfft", help="FFT length (default 2000)")
    p.add_argument("--window-kind", dest="window_kind",
                   help=f"taper kind, one of {', '.join(WINDOW_KINDS)} (default hamming)")
    p.add_argument("--no-detrend", dest="detrend", action="store_const", const=False,
                   help="skip mean subtraction")
    p.add_argument("--metrics", help=f"comma list from {','.join(METRICS)}")
    p.add_argument("--alpha", help="comma list of false-alarm probabilities (default 0.05)")
    p.add_argument("--band", help="verdict band f_lo:f_hi in Hz (default: manifest band)")
    p.add_argument("--holdout", help="held-out healthy records per set (default 0)")
    p.add_argument("--seed", help="shuffle seed for the baseline split (>= 0)")
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
