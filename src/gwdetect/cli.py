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

Command-line flags override config values.  Each option of ``detect``,
``roc`` and ``psd`` but ``roc --alpha-grid`` (a flag with no config key) is
written once, as a row of ``OPTIONS``: its flag, config key, default,
parser, expected text and help.  The rows build the argparse options, the
flag > config > default lookup (``_options``) and the defaults the help
states, and a test holds the README's config table to them.  The checks
across options (the Welch combination, the window against
``segment_length``, the band against the Welch grid, the path and set ids)
are code in ``_build_runconfig``, after the lookup.  ``simulate``'s options
are rows of ``SIMULATE_OPTIONS``, one per parameter of the generator; of a
config file it reads only ``[output] out_dir``.

A value that cannot be read names the flag, or the config file and
``[section] key``, it came from; every option is checked before any record
is read.  That includes an alpha of 2**-53 or less, where ``1 - alpha/2``
rounds to 1 and no critical point exists.  A config file may end its lines
with LF, CRLF or CR; one that is not UTF-8, or that ``configparser`` cannot
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
import os
import re
import sys
from dataclasses import dataclass, fields
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
from .simulate import ToneBurstSpec, _BadParameter, attenuation_ladder, synth_dataset
from .spectral import WINDOW_KINDS, WelchConfig
from .statdist import validate_alpha

OUTDIR_ENV = "GWDETECT_OUTDIR"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", str(text))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


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


def _options(args, cfg: dict):
    """The options given, by the rows of ``OPTIONS``: config key -> ``(text,
    where)``, ``where`` being its flag or the config file and ``[section]
    key``; and a reader of a key's value: the flag's text, else the config
    value, else the default, read by the row's parser.  A text the parser
    rejects names where it came from.  A value is read when it is asked for,
    so the checks of a run keep their order."""
    given = {}
    for key, (flag, *_) in OPTIONS.items():
        text = getattr(args, flag[2:].replace("-", "_"))
        if text is not None:
            given[key] = text, flag
        elif key in cfg:
            section, name = key.split(".")
            given[key] = cfg[key], f"{args.config}: [{section}] {name}"

    def value(key: str):
        _, default, parse, expected, _ = OPTIONS[key]
        text, where = given.get(key, (default, None))
        try:
            return text if parse is None or text is None else parse(text)
        except ValueError:
            raise _bad_option(where, text, expected) from None
    return given, value


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

    def scores(self, path: str):
        return compute_path_scores(self.manifest, path, self.window, self.welch, self.metrics,
                                   holdout=self.holdout, seed=self.seed, band=self.band,
                                   set_id=self.set_id)


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


def _member(choices, text: str) -> str:
    """``text`` if it is one of ``choices``."""
    if text not in choices:
        raise ValueError(text)
    return text


def _parse_bool(text) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[str(text).lower()]
    except KeyError:
        raise ValueError(text) from None


# Every option of ``detect``, ``roc`` and ``psd``, one row each; a test holds
# the README's config table to these rows.  config key: (flag, default,
# parser, expected, help).  A default is the text a config file would hold,
# read by the parser as any value is, and the help states it; ``None`` leaves
# the option unset, and the help says what that means.  A row without a
# parser keeps the text.  A ``--no-`` flag is a switch that gives its key the
# text "false".
_KINDS = ", ".join(WINDOW_KINDS)
OPTIONS = {
    "data.manifest": ("--manifest", None, None, None, "dataset manifest file"),
    "data.path": ("--path", None, None, None, "actuator-sensor path id (default: all paths)"),
    "data.set": ("--set-id", None, None, None, "restrict to one set id"),
    "data.window": ("--window", None, None, None, "named packet window from the manifest"),
    "welch.segment_length": ("--segment-length", "100", int, "an integer",
                             "estimation window length L"),
    "welch.overlap": ("--overlap", "0.5", float, "a number", "window overlap fraction"),
    "welch.nfft": ("--nfft", "2000", int, "an integer", "FFT length"),
    "welch.window_kind": ("--window-kind", "hamming",
                          lambda text: _member(WINDOW_KINDS, text.lower()),
                          f"one of {_KINDS}", f"taper kind, one of {_KINDS}"),
    "welch.detrend": ("--no-detrend", "true", _parse_bool,
                      "a boolean: 1, yes, true, on or 0, no, false, off",
                      "skip mean subtraction"),
    "detect.metrics": ("--metrics", ",".join(METRICS),
                       lambda text: _parse_list(text, lambda m: _member(METRICS, m)),
                       f"a comma list of distinct metrics from {','.join(METRICS)}",
                       "comma list of metrics"),
    "detect.alphas": ("--alpha", "0.05", lambda text: _parse_list(text, _parse_alpha),
                      "a comma list of distinct false-alarm probabilities in (2**-53, 1], "
                      "2**-53 being about 1.1e-16",
                      "comma list of false-alarm probabilities"),
    # read against the Welch grid by ``_build_runconfig``
    "detect.band": ("--band", None, None, None,
                    "verdict band f_lo:f_hi in Hz (default: manifest band)"),
    "detect.holdout": ("--holdout", "0", _non_negative_int, "a non-negative integer",
                       "held-out healthy records per set"),
    "detect.seed": ("--seed", None, _non_negative_int, "a non-negative integer",
                    "shuffle seed for the baseline split (>= 0)"),
    # $GWDETECT_OUTDIR comes between the flag and the config value: ``_out_dir``
    "output.out_dir": ("--out", None, None, None, "output directory"),
}


def _build_runconfig(args, *, scores: bool = True) -> RunConfig:
    """The run's settings, every one checked before any record is read;
    ``scores`` says whether the command scores in the band, and with it
    whether the manifest's own band must lie on the Welch grid."""
    cfg = _load_config(args.config)
    given, opt = _options(args, cfg)
    manifest_path = opt("data.manifest")
    if not manifest_path:
        raise ValueError("a manifest is required (--manifest or [data] manifest)")
    manifest = DatasetManifest.load(manifest_path)

    fields = (opt("welch.segment_length"), opt("welch.overlap"), opt("welch.nfft"),
              opt("welch.window_kind"), opt("welch.detrend"))
    try:
        welch = WelchConfig(*fields)
    except ValueError as exc:  # a combination: name every Welch option that was set
        raise ValueError(", ".join(f"{where} {text!r}" for key, (text, where) in given.items()
                                   if key.startswith("welch.") and key != "welch.detrend")
                         + f": {exc}") from None
    window = opt("data.window")
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
    path_flag = opt("data.path")
    if path_flag and path_flag not in manifest.paths():
        raise ValueError(f"path {path_flag!r} is not in the manifest "
                         f"(available: {manifest.paths()})")
    paths = [path_flag] if path_flag else manifest.paths()
    set_id = opt("data.set")
    for path in paths:
        if set_id is not None and set_id not in manifest.sets_for(path):
            raise ValueError(f"set {set_id!r} is not in path {path!r} "
                             f"(available: {manifest.sets_for(path)})")

    metrics, alphas = opt("detect.metrics"), opt("detect.alphas")
    grid = welch.freq_grid(manifest.sample_rate)
    on_grid = (f"in Hz with f_lo <= f_hi and a frequency of the grid "
               f"(0 to {grid[-1]:g} Hz in steps of {grid[1]:g} Hz) between them")
    band = manifest.band
    if "detect.band" in given:
        text, where = given["detect.band"]
        try:
            band = _parse_band(text, grid)
        except ValueError:
            raise _bad_option(where, text, f"f_lo:f_hi {on_grid}, or 'full'") from None
    elif scores and band is not None:
        try:
            _band_mask(grid, band)
        except ValueError:
            raise _bad_option(f"{manifest_path}: band", ",".join(map(fmt, band)),
                              f"f_lo,f_hi {on_grid}") from None
    out_dir = _out_dir(args, cfg)

    return RunConfig(
        manifest=manifest,
        window=window,
        paths=paths,
        set_id=set_id,
        welch=welch,
        metrics=metrics,
        alphas=alphas,
        band=band,
        holdout=opt("detect.holdout"),
        seed=opt("detect.seed"),
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
        scores = rc.scores(path)
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
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
        scores = rc.scores(path)
        curves.extend((path, metric, roc_sweep(scores, metric, grid)) for metric in rc.metrics)
    for path, metric, curve in curves:
        _write(rc.out_dir / f"roc_{_slug(path)}_{_slug(rc.window)}_{metric}.csv",
               curve.to_csv())
        print(f"{path} {metric}: auc = {curve.auc:.6f}")
    return 0


# Every option of ``simulate`` but --config and --out, one row each, keyed by
# the parameter of ``synth_dataset``, ``ToneBurstSpec`` or ``attenuation_ladder``
# it sets, which is also its argparse ``dest``: (flag, default, reader, help).
# The reader only turns the text into a number; every rule on the value is the
# generator's, and ``cmd_simulate`` names the flag and the text of a value it
# refuses.
SIMULATE_OPTIONS = {
    "seed": ("--seed", "0", int, None),
    "n_baseline": ("--n-baseline", "20", int, None),
    "n_steps": ("--ladder-steps", "6", int,
                "attenuation-ladder damage steps (0 for baseline-only)"),
    "start": ("--ladder-start", "0.9", float, None),
    "stop": ("--ladder-stop", "0.5", float, None),
    "n_per_damage": ("--n-per-damage", "5", int, None),
    "snr_db": ("--snr-db", "40.0", float, None),
    "noise_std": ("--noise-std", None, float, "absolute noise level (overrides --snr-db)"),
    "center_freq": ("--center-freq", "250e3", float, None),
    "n_cycles": ("--cycles", "5", int, None),
    "envelope": ("--envelope", "hanning", str, "hanning or hamming"),
    "amplitude": ("--amplitude", "90.0", float, None),
    "sample_rate": ("--sample-rate", "24e6", float, None),
    "n_samples": ("--n-samples", "8000", int, None),
    "arrival_delay": ("--arrival", "50e-6", float, "packet arrival delay in seconds"),
    "path_gain": ("--path-gain", "0.05", float, None),
}


def cmd_simulate(args) -> int:
    out_dir = _out_dir(args, _load_config(args.config))
    texts = {name: getattr(args, name) for name in SIMULATE_OPTIONS}
    values = {}
    for name, (_, _, read, _) in SIMULATE_OPTIONS.items():
        try:
            values[name] = None if texts[name] is None else read(texts[name])
        except ValueError:  # NaN breaks the parameter's rule, which says what it expects
            values[name] = float("nan")
    try:
        burst = ToneBurstSpec(**{f.name: values.pop(f.name) for f in fields(ToneBurstSpec)})
        ladder = attenuation_ladder(values.pop("n_steps"), values.pop("start"),
                                    values.pop("stop"))
        manifest = synth_dataset(out_dir, damage_specs=ladder, burst=burst, **values)
    except _BadParameter as exc:
        flags = {name: flag for name, (flag, *_) in SIMULATE_OPTIONS.items()}
        raise _bad_option(flags[exc.name], texts[exc.name],
                          exc.expected.format_map(flags)) from None
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
        if set(reports[-1].damage_labels) != set(reports[0].damage_labels):
            raise ValueError(f"inconsistent damage labels across reports: {args.reports[0]} "
                             f"{reports[0].damage_labels} vs {p} {reports[-1].damage_labels}")
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
    """The ``--config`` flag and a flag for each row of ``OPTIONS``."""
    p.add_argument("--config", help="key = value config file with section headers")
    for flag, default, _, _, text in OPTIONS.values():
        if flag.startswith("--no-"):  # a switch: it gives its key the text "false"
            p.add_argument(flag, action="store_const", const="false", help=text)
        else:
            p.add_argument(flag, help=f"{text} (default {default})" if default else text)


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
    for name, (flag, default, _, text) in SIMULATE_OPTIONS.items():
        p.add_argument(flag, dest=name, default=default, help=text,
                       metavar=flag[2:].replace("-", "_").upper())
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
