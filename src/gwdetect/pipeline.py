"""Dataset orchestration: baseline/inspection runs over manifests, ROC sweeps
and appendix-style summary tables.

A dataset is described by a manifest file: a key-value header (sample rate,
baseline label, named packet windows, optional verdict band) followed by a
CSV body with one row per signal file::

    sample_rate = 24000000.0
    baseline_label = healthy
    band = 150000.0,350000.0
    window.first-packet = 1200,500
    window.full = 0,8000
    file,label,path_id,set_id
    signals/baseline_000.csv,healthy,1-2,set0

Baselines are scoped by ``set_id``: every inspection signal is judged against
the ensemble built from its own set's healthy records.  ``load_set`` reads
each record of a (path, set) once, writes its packet window and Welch
estimate into a row, and splits the baselines; every command and metric works
from that one load, so each record is read and Welch-estimated once per
command.

Two reference protocols coexist, mirroring how many test cases each metric
produces.  The ensemble metrics (``fm``, ``z``) yield one verdict per
inspection signal.  The pairwise metrics (``f`` and the two damage indices)
consume an explicit reference signal, so every (reference, inspection) ordered
pair is a test case; held-out healthy signals provide the false-alarm pairs
(all ordered in-train pairs when nothing is held out).

Scoring and decisions are array operations per set.  ``compute_path_scores``
is the one function that takes the dataset arguments (manifest, path, window,
Welch config, metrics, holdout, seed, band, set id).  It scores every case of
a metric at once from ``load_set``'s rows, one per record, of PSDs (records x
bins) and packets (records x samples) into a ``CaseTable``: pairwise PSD
ratios, the ensemble statistics in one expression each, and both damage
indices from one Gram matrix of the packets, each case with its p-value.
``run_inspection(scores, alpha)`` and ``roc_sweep(scores, metric)`` then only
decide: a case is damaged at alpha when ``p < alpha``
(``CaseTable.damaged``), so one scoring pass serves every alpha and every
metric it scored.  ``run_inspection`` only counts those decisions: its
``DetectionReport`` holds exactly what its CSV holds, one
``(metric, label) -> (count, cases)`` entry per row in row order.  Its rule
(alpha in (0, 1], counts within their cases, a row for every metric and
label, one-line texts, ...) is checked where a report is constructed, so
every report that constructs is written by ``to_csv`` and read back equal by
``from_csv``.  One table of ``# key = value`` headers serves both, and
``from_csv`` reads a text back only if the report it holds writes that text
again, naming the first line that differs.  A record that cannot be cut
or scored (shorter than the window, a zero PSD or packet) names its file.
``detect`` writes the per-case verdict rows straight from the case tables.  The curves
``detect`` plots (``statistic_curves``) use the same per-bin expressions
and the critical points, over the same band: one array per set and metric,
a row per inspected record and a column per in-band bin.  Every rule of a metric,
input checks included, lives in ``detectors``, where the scalar detectors
build on it too; this module builds, stacks and chunks the cases.  The tests
hold both paths equal to call-by-call oracles.
"""

import math
import posixpath
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .dataio import _one_line, _utf8_text, fmt, read_signal
from .detectors import (BaselineEnsemble, _band_mask, _check_probe, _critical_points,
                        _damage_index, _dof, _live_bins, _p_value, _RecordError, _statistic)
from .spectral import Signal, WelchConfig, _checked_rate, welch_psd
from .statdist import validate_alpha

__all__ = [
    "METRICS",
    "ManifestEntry",
    "DatasetManifest",
    "CaseTable",
    "PathScores",
    "LoadedSet",
    "DetectionReport",
    "RocCurve",
    "locate_packet",
    "extract_packet",
    "load_set",
    "compute_path_scores",
    "statistic_curves",
    "run_inspection",
    "roc_sweep",
    "default_alpha_grid",
    "summary_table",
]

METRICS = ("f", "fm", "z", "janapati", "qiu")
_DI_METRICS = ("janapati", "qiu")
_HEADER = "file,label,path_id,set_id"


def _checked_band(band) -> tuple:
    """``band`` as a ``(lo, hi)`` pair of floats, neither of them NaN."""
    lo, hi = map(float, band)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"band {band!r} holds NaN")
    return lo, hi


@dataclass(frozen=True)
class ManifestEntry:
    """One row of a manifest's CSV body, held to the rule that makes it read
    back equal: every field is a ``str`` that encodes as UTF-8; ``file`` and
    ``label`` are not empty; no field holds ``,``, a line break (LF or CR)
    or whitespace at either end; ``set_id`` holds no ``;``, which separates
    the sets of a report's ``# m_train`` header; and the row reads as
    neither a comment (a ``file`` that starts with ``#``) nor the
    ``file,label,path_id,set_id`` header.  An entry built in memory obeys
    the rule as one read from disk does."""

    file: str
    label: str
    path_id: str
    set_id: str

    def __post_init__(self):
        for name, value in vars(self).items():
            _one_line(f"{name} field", value)
            if not value and name in ("file", "label"):
                raise ValueError(f"empty {name} field")
            for char in ",;" if name == "set_id" else ",":
                if char in value:
                    raise ValueError(f"{name} field {value!r} holds {char!r}")
        if self.file.startswith("#"):
            raise ValueError(f"file field {self.file!r} starts with '#' and would read "
                             "as a comment")
        if ",".join(vars(self).values()) == _HEADER:
            raise ValueError(f"the entry would read as the {_HEADER!r} header")


class _RepeatedFile(ValueError):
    """Entry ``again`` lists the file of entry ``first`` again in one path
    and set."""

    def __init__(self, entry: ManifestEntry, first: int, again: int):
        self.entry, self.first, self.again = entry, first, again
        super().__init__(self.at(f"entry {again}", f"as entry {first}"))

    def at(self, again: str, first: str) -> str:
        e = self.entry
        return (f"{again}: {e.file} is listed again for path {e.path_id!r}, "
                f"set {e.set_id!r} (first {first})")


@dataclass
class DatasetManifest:
    """Index of one dataset: signal files, windows and analysis defaults.

    Its rules are checked where it is constructed, so a manifest built in
    memory obeys the rules of one read from disk, and every manifest that
    constructs is written by ``save`` and read back equal by ``load``.  Each
    entry obeys ``ManifestEntry``'s rule, and no file is listed twice in one
    path and set, two files compared after ``posixpath.normpath``, with a
    leading ``//`` read as ``/`` (so ``signals/./a.csv`` repeats
    ``signals/a.csv``, and ``//d/a.csv`` repeats ``/d/a.csv``).  ``baseline_label`` and
    the window names encode as UTF-8 and hold no line break and no
    whitespace at either end, a window name holds no ``=``, and the band
    holds no NaN.  That every path has a baseline entry is ``validate``'s
    separate check."""

    entries: tuple
    sample_rate: float
    baseline_label: str = "healthy"
    packet_windows: dict = field(default_factory=dict)
    band: tuple = None
    base_dir: Path = Path(".")

    def __setattr__(self, name, value):
        """Setting ``entries`` takes each as a ``ManifestEntry``, refuses a
        file listed twice in one path and set, and groups them by path and
        set once, for the lookups below; they are kept as a tuple, so that
        the grouping cannot go stale by an edit in place."""
        if name == "entries":
            value = tuple(e if isinstance(e, ManifestEntry) else ManifestEntry(*e)
                          for e in value)
            by_path, positions, seen = {}, {}, {}
            for k, e in enumerate(value):
                file = posixpath.normpath(e.file)
                if file.startswith("//"):  # normpath keeps it; on Linux it is "/"
                    file = file[1:]
                first = seen.setdefault((e.path_id, e.set_id, file), k)
                if first != k:
                    raise _RepeatedFile(e, first, k)
                in_path = by_path.setdefault(e.path_id, [])
                positions.setdefault(e.path_id, {}).setdefault(e.set_id, []).append(len(in_path))
                in_path.append(e)
            super().__setattr__("_by_path", by_path)
            super().__setattr__("_positions", positions)
        super().__setattr__(name, value)

    def __post_init__(self):
        self.sample_rate = _checked_rate(self.sample_rate)
        _one_line("baseline_label", self.baseline_label)
        self.packet_windows = {
            str(name): (int(start), int(length))
            for name, (start, length) in self.packet_windows.items()
        }
        for name, (start, length) in self.packet_windows.items():
            if "=" in _one_line("window name", name):
                raise ValueError(f"window name {name!r} holds '='")
            if start < 0 or length < 1:
                raise ValueError(f"window {name!r}: bad range ({start}, {length})")
        if self.band is not None:
            self.band = _checked_band(self.band)
        self.base_dir = Path(self.base_dir)

    def validate(self) -> None:
        """Every path must come with at least one baseline entry."""
        for path, entries in self._by_path.items():
            if not any(e.label == self.baseline_label for e in entries):
                raise ValueError(f"path {path!r} has no baseline entry")

    def paths(self):
        return list(self._by_path)

    def sets_for(self, path: str):
        return list(self._positions.get(path, ()))

    def positions_for(self, path: str, set_id: str):
        """Where each entry of a set stands among all entries of its path."""
        return list(self._positions.get(path, {}).get(set_id, ()))

    def entries_for(self, path: str, set_id: str = None, label: str = None):
        out = self._by_path.get(path, [])
        if set_id is not None:
            out = [out[i] for i in self.positions_for(path, set_id)]
        return [e for e in out if label is None or e.label == label]

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.base_dir / entry.file

    def load_entry(self, entry: ManifestEntry) -> Signal:
        sig = read_signal(self.resolve(entry))
        if sig.sample_rate != self.sample_rate:
            raise ValueError(
                f"{entry.file}: sample rate {sig.sample_rate:g} Hz does not match "
                f"the manifest's {self.sample_rate:g} Hz"
            )
        return Signal(samples=sig.samples, sample_rate=sig.sample_rate,
                      label=entry.label)

    def save(self, path) -> Path:
        path = Path(path)
        lines = [
            f"sample_rate = {fmt(self.sample_rate)}",
            f"baseline_label = {self.baseline_label}",
        ]
        if self.band is not None:
            lines.append(f"band = {fmt(self.band[0])},{fmt(self.band[1])}")
        for name in sorted(self.packet_windows):
            start, length = self.packet_windows[name]
            lines.append(f"window.{name} = {start},{length}")
        lines.append(_HEADER)
        lines.extend(f"{e.file},{e.label},{e.path_id},{e.set_id}" for e in self.entries)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        return path

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        path = Path(path)
        meta = {}
        windows = {}
        entries, entry_lines, key_lines = [], [], {}
        in_body = False
        for ln, raw in enumerate(_utf8_text(path, path.read_bytes()).split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == _HEADER:
                in_body = True
                continue
            if in_body:
                parts = line.split(",")
                if len(parts) != 4:
                    raise ValueError(f"{path}:{ln}: expected 4 CSV fields, got {len(parts)}")
                try:
                    entries.append(ManifestEntry(*[p.strip() for p in parts]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{ln}: {exc}") from None
                entry_lines.append(ln)
            else:
                if "=" not in line:
                    raise ValueError(f"{path}:{ln}: expected 'key = value' before the CSV header")
                key, value = (s.strip() for s in line.split("=", 1))
                first = key_lines.setdefault(key, ln)
                if first != ln:
                    raise ValueError(f"{path}:{ln}: a second {key!r} key (first on line {first})")
                try:
                    if key.startswith("window."):
                        start, length = value.split(",")
                        windows[key[len("window."):]] = (int(start), int(length))
                    elif key == "band":
                        meta[key] = _checked_band(value.split(","))
                    elif key == "sample_rate":
                        meta[key] = _checked_rate(value)
                    else:
                        meta[key] = value
                except ValueError:
                    raise ValueError(f"{path}:{ln}: bad value {value!r} for {key!r}") from None
        if "sample_rate" not in meta:
            raise ValueError(f"{path}: missing 'sample_rate' key")
        if not entries:
            raise ValueError(f"{path}: no entries after the CSV header")
        try:
            manifest = cls(
                entries=entries,
                sample_rate=meta["sample_rate"],
                baseline_label=meta.get("baseline_label", "healthy"),
                packet_windows=windows,
                band=meta.get("band"),
                base_dir=path.parent,
            )
            manifest.validate()
        except _RepeatedFile as exc:
            raise ValueError(exc.at(f"{path}:{entry_lines[exc.again]}",
                                    f"on line {entry_lines[exc.first]}")) from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return manifest


# ---------------------------------------------------------------------------
# packet windowing
# ---------------------------------------------------------------------------

def locate_packet(signal: Signal, threshold: float = 0.1, smooth: int = 96) -> int:
    """Onset of the first wave packet via a short-time energy envelope.

    The packet is found where the centered moving-average energy first
    crosses ``threshold`` times its maximum; the onset is then refined by
    backtracking to the last sample at the quiet floor (a thousandth of the
    peak, or twice the median noise level, whichever is larger) and advancing
    a quarter window to offset the average's early rise.
    """
    if not 0.0 < float(threshold) <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    x = signal.samples
    w = max(4, int(smooth))
    env = np.convolve(x * x, np.ones(w) / w, mode="same")
    peak = float(env.max())
    if peak <= 0.0:
        raise ValueError("cannot locate a packet in an all-zero signal")
    above = np.nonzero(env >= threshold * peak)[0]
    if above.size == 0:
        raise ValueError(f"no envelope crossing at threshold {threshold}")
    crossing = int(above[0])
    floor = max(1e-3 * peak, 2.0 * float(np.median(env)))
    quiet = np.nonzero(env[:crossing] <= floor)[0]
    if quiet.size == 0:
        return 0
    return max(int(quiet[-1]) - w // 4, 0)


def extract_packet(signal: Signal, window_name: str, manifest: DatasetManifest,
                   auto_locate: bool = False, threshold: float = 0.1,
                   smooth: int = 64) -> Signal:
    """Copy the named analysis window out of a signal, metadata preserved.

    With ``auto_locate`` the window keeps its length but starts at the
    detected packet onset (clamped so it stays inside the signal).
    """
    if window_name not in manifest.packet_windows:
        raise ValueError(
            f"unknown window {window_name!r}; manifest defines "
            f"{sorted(manifest.packet_windows)}"
        )
    start, length = manifest.packet_windows[window_name]
    n = signal.samples.size
    if auto_locate:
        start = min(locate_packet(signal, threshold, smooth), max(n - length, 0))
    if start + length > n:
        raise ValueError(
            f"window {window_name!r} ({start}, {length}) exceeds the {n}-sample signal"
        )
    return Signal(samples=signal.samples[start:start + length].copy(),
                  sample_rate=signal.sample_rate, label=signal.label)


# ---------------------------------------------------------------------------
# loading and the baseline split
# ---------------------------------------------------------------------------

def _split_order(n: int, holdout: int, shuffle_seed):
    order = np.arange(n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n)
    return order[:n - holdout], order[n - holdout:]


@dataclass(frozen=True, eq=False)
class LoadedSet:
    """Every record of one (path, set), read and Welch-estimated once.

    ``train``, ``held`` and ``inspect`` index into ``entries`` (and into the
    rows of ``packets`` and ``psds``); ``ensemble`` holds the ``train`` rows.
    """

    set_id: str
    entries: tuple      # ManifestEntry per record, manifest order
    packets: np.ndarray  # (records, window): each record's packet window
    psds: np.ndarray    # (records, bins): each record's Welch PSD
    train: tuple        # training baselines, in split order
    held: tuple         # held-out baselines, in split order
    inspect: tuple      # non-baseline records, manifest order
    ensemble: BaselineEnsemble


def load_set(manifest: DatasetManifest, path: str, set_id: str, window: str,
             welch_config: WelchConfig, holdout: int = 0, seed=None) -> LoadedSet:
    """Read each record of a (path, set) once, cut out its packet window and
    estimate its PSD, then split the baselines and build the ensemble.

    ``set_id=None`` takes every set of the path.  The split is deterministic
    (first in manifest order train, remainder held out) unless ``seed``
    shuffles it.
    """
    holdout = int(holdout)
    if holdout < 0:
        raise ValueError("holdout must be >= 0")
    entries = tuple(manifest.entries_for(path, set_id=set_id))
    base = [i for i, e in enumerate(entries) if e.label == manifest.baseline_label]
    if len(base) < holdout + 2:
        where = f"path {path!r}" if set_id is None else f"set {set_id!r} of path {path!r}"
        raise ValueError(
            f"{where} has {len(base)} baseline entries; "
            f"need at least holdout+2 = {holdout + 2}"
        )
    train_idx, held_idx = _split_order(len(base), holdout, seed)
    for row, entry in enumerate(entries):
        signal = manifest.load_entry(entry)
        try:
            packet = extract_packet(signal, window, manifest)
        except ValueError as exc:
            if window not in manifest.packet_windows:
                raise
            raise ValueError(f"{entry.file}: {exc}") from None  # shorter than the window
        psd = welch_psd(packet, welch_config)
        if not row:  # the first record fixes the window length and the grid
            packets, psds = (np.empty((len(entries), a.size)) for a in (packet.samples, psd.values))
        packets[row], psds[row] = packet.samples, psd.values
    train = tuple(base[k] for k in train_idx)
    return LoadedSet(
        set_id=set_id, entries=entries, packets=packets, psds=psds,
        train=train, held=tuple(base[k] for k in held_idx),
        inspect=tuple(i for i, e in enumerate(entries)
                      if e.label != manifest.baseline_label),
        ensemble=BaselineEnsemble(members=psds[list(train)], freq_grid=psd.freq_grid,
                                  config=welch_config, k_windows=psd.k_windows),
    )


# ---------------------------------------------------------------------------
# scoring (alpha-free sufficient statistics per test case)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CaseTable:
    """Every scored case of one metric as columns, one entry per case.

    ``stat_lo`` and ``stat_hi`` are the min and max in-band statistic (``z``
    keeps only the max, a damage index its value in ``stat_hi``), ``dof1`` and
    ``dof2`` the F degrees of freedom of ``f``/``fm``, ``center`` and
    ``spread`` the healthy mean and std of a damage index.  Decisions read
    only ``p``.
    """

    metric: str
    case_ids: tuple
    labels: tuple
    is_healthy: np.ndarray  # bool
    stat_lo: np.ndarray
    stat_hi: np.ndarray
    dof1: np.ndarray        # int
    dof2: np.ndarray
    center: np.ndarray
    spread: np.ndarray
    p: np.ndarray           # p-value: damaged at alpha iff p < alpha

    @classmethod
    def concat(cls, metric: str, parts) -> "CaseTable":
        """One table from per-set column dicts, in set order; a column a
        metric does not score is NaN (``stat_lo``, ``stat_hi``) or 0."""
        unscored = {"stat_lo": math.nan, "stat_hi": math.nan, "dof1": 0, "dof2": 0,
                    "center": 0.0, "spread": 0.0}

        def column(key):
            return np.concatenate([np.broadcast_to(p.get(key, unscored.get(key)),
                                                   len(p["case_ids"])) for p in parts])
        return cls(metric=metric,
                   case_ids=tuple(chain.from_iterable(p["case_ids"] for p in parts)),
                   labels=tuple(chain.from_iterable(p["labels"] for p in parts)),
                   **{key: column(key) for key in ("is_healthy", "p", *unscored)})

    def __len__(self) -> int:
        return len(self.case_ids)

    def damaged(self, alpha: float) -> np.ndarray:
        """Each case's decision at ``alpha``, the one rule of every metric."""
        return self.p < alpha


@dataclass(frozen=True)
class PathScores:
    path: str
    window: str
    band: tuple
    welch: WelchConfig
    holdout: int
    cases: dict            # metric -> CaseTable
    damage_labels: tuple
    sets: tuple            # LoadedSet per set id

    @property
    def m_by_set(self) -> dict:
        return {s.set_id: s.ensemble.m for s in self.sets}


_CHUNK = 1 << 14  # elements per temporary of the pairwise PSD ratio (128 kB)


def _pairs(outer: np.ndarray, inner: np.ndarray):
    """Every (outer, inner) index pair, the outer index varying slowest."""
    return np.repeat(outer, inner.size), np.tile(inner, outer.size)


def _extrema(metric: str, ens: BaselineEnsemble, psds: np.ndarray, mask, probe, ref=None):
    """Min and max over the in-band bins of the statistic of each ``probe`` row
    against its ``ref`` row (the ensemble mean when ``ref`` is None), ``z``
    skipping zero-variance bins; ``fmin``/``fmax`` skip NaN bins and it fails,
    as the scalar detectors do."""
    var = None
    if metric == "z" and probe.size:
        mask = _live_bins(ens.freq_grid, mask, ens.var_psd)
        var = ens.var_psd[mask]
    inband, mean = psds[:, mask], ens.mean_psd[mask]
    if metric != "z":
        _check_probe(ens.freq_grid[mask], inband, rows=probe)
    lo, hi = np.empty(probe.size), np.empty(probe.size)
    step = max(1, _CHUNK // inband.shape[1])
    for k in range(0, probe.size, step):
        refs = mean if ref is None else inband[ref[k:k + step]]
        values = _statistic(metric, refs, inband[probe[k:k + step]], var)
        lo[k:k + step] = np.fmin.reduce(values, axis=1)
        hi[k:k + step] = np.fmax.reduce(values, axis=1)
    return lo, hi


def _score_set(loaded: LoadedSet, metrics, band, baseline_label: str) -> dict:
    """Columns of every case of one set, per metric, by array operations on
    the set's PSD and packet rows, with each case's p-value.

    Cases come in the order, and failures with the messages, of scoring each
    case with the scalar detectors.
    """
    ens, entries = loaded.ensemble, loaded.entries
    mask = _band_mask(ens.freq_grid, band)
    stems = [Path(e.file).stem for e in entries]
    names = [f"{loaded.set_id}:{s}" for s in stems]
    healthy = np.array([e.label == baseline_label for e in entries], dtype=bool)
    train, held, inspect = (np.array(ix, dtype=np.intp)
                            for ix in (loaded.train, loaded.held, loaded.inspect))

    in_train = _pairs(train, train)
    in_train = tuple(ix[in_train[0] != in_train[1]] for ix in in_train)
    healthy_pairs = _pairs(train, held) if held.size else in_train
    probe_of_damage, ref_of_damage = _pairs(inspect, train)
    ref = np.concatenate([healthy_pairs[0], ref_of_damage])
    probe = np.concatenate([healthy_pairs[1], probe_of_damage])
    probes = np.concatenate([held, inspect])
    pair_cols = {"case_ids": tuple(f"{names[i]}->{stems[j]}"
                                   for i, j in zip(ref.tolist(), probe.tolist())),
                 "labels": tuple(entries[j].label for j in probe.tolist()),
                 "is_healthy": healthy[probe]}
    probe_cols = {"case_ids": tuple(names[j] for j in probes.tolist()),
                  "labels": tuple(entries[j].label for j in probes.tolist()),
                  "is_healthy": healthy[probes]}

    if any(m in _DI_METRICS for m in metrics):
        x = loaded.packets
        gram, sums = x @ x.T, x.sum(axis=1)
        energy = gram.diagonal()

        def damage_index(metric, i, j):  # of every (i, j) packet pair
            return _damage_index(metric, gram[i, j], energy[i], energy[j], sums[i], sums[j],
                                 rows=(i, j))

    out = {}
    for metric in metrics:
        if metric in _DI_METRICS:
            cols = pair_cols
            scatter = damage_index(metric, *in_train)
            stats = {"stat_hi": damage_index(metric, ref, probe),
                     "center": float(np.mean(scatter)), "spread": float(np.std(scatter, ddof=1))}
        else:
            probe_rows, ref_rows, cols = ((probe, ref, pair_cols) if metric == "f" else
                                          (probes, None, probe_cols))
            lo, hi = _extrema(metric, ens, loaded.psds, mask, probe_rows, ref_rows)
            stats = ({"stat_hi": hi} if metric == "z" else
                     {"stat_lo": lo, "stat_hi": hi, **_dof(metric, ens.k_windows, ens.m)})
        out[metric] = {**cols, **stats, "p": _p_value(metric, **stats)}
    return out


_MANIFEST_BAND = object()  # ``band`` not given: the manifest's band


def compute_path_scores(manifest: DatasetManifest, path: str, window: str,
                        welch_config: WelchConfig, metrics, *, holdout: int = 0,
                        seed=None, band=_MANIFEST_BAND, set_id: str = None) -> PathScores:
    """Score every test case of a path once; verdicts then cost one array
    comparison per alpha.

    ``band`` is ``(f_lo, f_hi)`` in Hz, or ``None`` for the full grid; not
    given, it is the manifest's band (full grid if the manifest has none).
    Baselines are scoped per set id; results are pooled across sets.
    Pairwise metrics score (reference in train, probe) pairs, the probes being
    the held-out healthy records (every other in-train record when nothing is
    held out) and then the inspection records; ensemble metrics score the same
    probes alone.
    """
    metrics = tuple(metrics)
    if not metrics:
        raise ValueError("metrics list must not be empty")
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; choose from {METRICS}")
    if band is _MANIFEST_BAND:
        band = manifest.band
    set_ids = [set_id] if set_id is not None else manifest.sets_for(path)
    if not set_ids:
        raise ValueError(f"no entries for path {path!r}")

    sets = tuple(load_set(manifest, path, s, window, welch_config, holdout, seed)
                 for s in set_ids)
    parts = {m: [] for m in metrics}
    for loaded in sets:
        try:
            scored = _score_set(loaded, metrics, band, manifest.baseline_label)
        except _RecordError as exc:  # a zero PSD or packet: name its record
            raise ValueError(f"{loaded.entries[exc.row].file}: {exc}") from None
        for metric, cols in scored.items():
            parts[metric].append(cols)
    damage_labels = dict.fromkeys(s.entries[j].label for s in sets for j in s.inspect)

    return PathScores(path=path, window=window, band=band, welch=welch_config,
                      holdout=int(holdout),
                      cases={m: CaseTable.concat(m, p) for m, p in parts.items()},
                      damage_labels=tuple(damage_labels), sets=sets)


def statistic_curves(loaded: LoadedSet, metrics, alphas, band=None):
    """``(metric, bounds, values)`` per PSD metric: ``bounds`` holds
    ``(alpha, lower, upper)`` for each alpha, and ``values`` is an array of
    one row per record of ``loaded.inspect`` and one column per bin of
    ``band`` (``None``: the whole grid).  Row ``i`` holds the in-band values
    of ``f_statistic`` (on the first training baseline), ``fm_statistic`` or
    ``z_statistic`` against record ``loaded.inspect[i]``, the same values as
    those bins of the scalar detector's curve.  A curve serves every alpha."""
    ens = loaded.ensemble
    alphas = [validate_alpha(a) for a in alphas]
    mask = _band_mask(ens.freq_grid, band)
    probes = loaded.psds[np.asarray(loaded.inspect, dtype=np.intp)][:, mask]
    for metric in (m for m in metrics if m not in _DI_METRICS):
        ref = ens.members[0] if metric == "f" else ens.mean_psd
        dof = _dof(metric, ens.k_windows, ens.m)
        bounds = [(a, *_critical_points(metric, a, **dof)) for a in alphas]
        yield metric, bounds, _statistic(metric, ref[mask], probes, var=ens.var_psd[mask])


# ---------------------------------------------------------------------------
# inspection phase
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    """An int or NumPy integer, not a bool: its ``str`` reads back by ``int``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class _BadReport(ValueError):
    """A report breaks its rule at ``where``: the key of a ``# key`` header
    (``m_train`` for ``m_by_set``), or the ``(metric, label)`` of a row."""

    def __init__(self, where, detail: str):
        self.where, self.detail = where, detail
        super().__init__(detail if isinstance(where, str) else f"row {where}: {detail}")


@dataclass(frozen=True)
class DetectionReport:
    """The counts of one path, window and alpha, as ``report_*.csv`` lists
    them: ``counts`` maps ``(metric, label)`` to ``(count, cases)`` in the
    file's row order, with label ``None`` for a metric's false-alarm row.

    Its rule is checked where it is constructed, so every report that
    constructs is written by ``to_csv`` and read back equal by ``from_csv``:
    ``alpha`` lies in (0, 1]; ``band`` is ``None`` (the full grid) or
    ``(lo, hi)`` with ``lo <= hi`` and neither NaN; ``holdout`` is an int
    >= 0; each M of ``m_by_set`` is an int >= 1, under a set id that holds no
    ``;``; each row's metric is one of ``METRICS`` and its label ``None`` or
    a non-empty one that holds no ``,``; each count is an int in 0 to its
    cases; and each metric has its false-alarm row and a missed row for
    every damage label.  ``path``, ``window``, set ids and labels encode as
    UTF-8 and hold no line break and no whitespace at either end.  ``alpha``
    is kept as a float and ``band`` as a pair of floats."""

    path: str
    window: str
    alpha: float
    counts: dict
    holdout: int
    m_by_set: dict
    band: tuple
    welch: WelchConfig

    def __post_init__(self):
        try:
            for where in ("path", "window"):
                _one_line(where, getattr(self, where))
            where = "alpha"
            object.__setattr__(self, "alpha", validate_alpha(self.alpha))
            where = "band"
            if self.band is not None:
                object.__setattr__(self, "band", _checked_band(self.band))
                if self.band[0] > self.band[1]:
                    raise ValueError(f"band {self.band!r} has lo > hi")
            where = "holdout"
            if not (_is_int(self.holdout) and self.holdout >= 0):
                raise ValueError(f"holdout {self.holdout!r} is not an int >= 0")
            where = "m_train"
            for set_id, m in self.m_by_set.items():
                if ";" in _one_line("set id", set_id):
                    raise ValueError(f"set id {set_id!r} holds ';'")
                if not (_is_int(m) and m >= 1):
                    raise ValueError(f"M {m!r} of set {set_id!r} is not an int >= 1")
            for where, (count, cases) in self.counts.items():
                metric, label = where
                if metric not in METRICS:
                    raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
                if label is not None and (not _one_line("label", label) or "," in label):
                    raise ValueError(f"label {label!r} is empty or holds ','")
                if not (_is_int(count) and _is_int(cases)):
                    raise ValueError(f"count {count!r} or cases {cases!r} is not an int")
                if not 0 <= count <= cases:
                    raise ValueError(f"count {count} is not between 0 and its {cases} cases")
        except ValueError as exc:
            raise _BadReport(where, str(exc)) from None
        for metric in self.metrics:
            for label in (None, *self.damage_labels):
                if (metric, label) not in self.counts:
                    raise ValueError(f"metric {metric!r} has no " + (
                        "false_alarm row" if label is None
                        else f"missed row for label {label!r}"))

    @property
    def metrics(self) -> tuple:
        """The metrics of the rows, in first-seen order."""
        return tuple(dict.fromkeys(metric for metric, _ in self.counts))

    @property
    def damage_labels(self) -> tuple:
        """The damage labels of the rows, in first-seen order."""
        return tuple(dict.fromkeys(label for _, label in self.counts if label is not None))

    def pct(self, metric: str, label=None):
        """A row's percentage: false alarms of the healthy cases (``label``
        None), else missed of the damage cases; None with no cases."""
        count, cases = self.counts[metric, label]
        return None if cases == 0 else 100.0 * count / cases

    def to_csv(self) -> str:
        lines = [f"# {key} = {write(getattr(self, name))}"
                 for key, (name, write, _) in _REPORT_HEADERS.items()]
        lines.append(_COLUMNS)
        for (metric, label), (count, cases) in self.counts.items():
            kind = "false_alarm," if label is None else f"missed,{label}"
            pct = "" if cases == 0 else fmt(100.0 * count / cases)
            lines.append(f"{metric},{kind},{count},{cases},{pct}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DetectionReport":
        """The report a ``to_csv`` text holds, refused unless its ``to_csv``
        is that text, blank lines and the whitespace around a line aside
        (lines end at LF alone, as ``dataio._utf8_text`` gives them).  A line
        is a ``# key = value`` header, the column line or a row, keyed as
        ``to_csv`` writes it: a ``false_alarm`` row by its metric, any other
        by metric and label.  An error names the line of a line that is none
        of these, a header value its reader refuses or a second line for a
        key; then a missing header; then the constructor's error, at its
        header or row; then the first line that ``to_csv`` writes otherwise."""

        def lines_of(text):
            return [(ln, line.strip()) for ln, line in enumerate(text.split("\n"), start=1)
                    if line.strip()]

        def bad_header(key):
            ln, value = headers[key]
            return ValueError(f"line {ln}: bad '# {key}' header {value!r}")

        lines, headers, fields, counts, row_line = lines_of(text), {}, {}, {}, {}
        syntax = f"expected a '# key = value' header or a {_COLUMNS} row"
        heads = [(ln, line) for ln, line in lines if line[0] == "#"]
        rows = [(ln, line) for ln, line in lines if line[0] != "#" and line != _COLUMNS]
        for ln, line in heads:
            key, eq, value = (s.strip() for s in line[1:].partition("="))
            if not eq:
                raise ValueError(f"line {ln}: {syntax}")
            if key in headers:
                raise ValueError(f"line {ln}: a second '# {key}' header")
            headers[key] = ln, value
            if key in _REPORT_HEADERS:
                name, _, read = _REPORT_HEADERS[key]
                try:
                    fields[name] = read(value)
                except (IndexError, KeyError, ValueError):
                    raise bad_header(key) from None
        missing = [f"'# {key}'" for key in _REPORT_HEADERS if key not in headers]
        if missing:
            raise ValueError(f"not a detect report: missing {', '.join(missing)} header")
        for ln, line in rows:
            try:
                metric, kind, label, count, cases, _ = line.split(",")
                count, cases = int(count), int(cases)
            except ValueError:
                raise ValueError(f"line {ln}: {syntax}") from None
            key = (metric, None if kind == "false_alarm" else label)
            if key in counts:
                raise ValueError(f"line {ln}: a second {kind} row for metric {metric!r}"
                                 + ("" if key[1] is None else f" and label {label!r}"))
            counts[key], row_line[key] = (count, cases), ln
        try:
            report = cls(counts=counts, **fields)
        except _BadReport as exc:
            if isinstance(exc.where, str):
                raise bad_header(exc.where) from None
            raise ValueError(f"line {row_line[exc.where]}: {exc.detail}") from None
        end = (lines[-1][0] + 1, None)  # a header is present, so lines is not empty
        written = [line for _, line in lines_of(report.to_csv())]
        for (ln, got), want in zip(lines + [end], written + [None]):
            if got != want:
                got, want = ("no line" if s is None else repr(s) for s in (got, want))
                raise ValueError(f"line {ln}: {got}, where to_csv writes {want}")
        return report


def _band_str(band) -> str:
    return "full" if band is None else f"{fmt(band[0])}:{fmt(band[1])}"


def _m_note(m_by_set: dict) -> str:
    """Training ensemble size per set, as ``set:M`` items in set order."""
    return ";".join(f"{s}:{m}" for s, m in sorted(m_by_set.items()))


def _welch_note(w: WelchConfig) -> str:
    return (f"L={w.segment_length},overlap={fmt(w.overlap_fraction)},nfft={w.nfft},"
            f"window={w.window_kind},detrend={int(w.detrend_mean)}")


def _read_welch(text: str) -> WelchConfig:
    kv = dict(item.split("=") for item in text.split(","))
    return WelchConfig(segment_length=int(kv["L"]), overlap_fraction=float(kv["overlap"]),
                       nfft=int(kv["nfft"]), window_kind=kv["window"],
                       detrend_mean=bool(int(kv["detrend"])))


def _read_m_train(text: str) -> dict:
    pairs = (item.rsplit(":", 1) for item in text.split(";") if item)  # a set id may hold ':'
    return {s: int(m) for s, m in pairs}


# Each ``# key = value`` header of a report, in file order: the field that it
# holds, its writer (``to_csv``) and its reader (``from_csv``).
_REPORT_HEADERS = {
    "path": ("path", str, str),
    "window": ("window", str, str),
    "alpha": ("alpha", fmt, float),
    "band": ("band", _band_str,
             lambda text: None if text == "full" else tuple(map(float, text.split(":")))),
    "welch": ("welch", _welch_note, _read_welch),
    "holdout": ("holdout", str, int),
    "m_train": ("m_by_set", _m_note, _read_m_train),
}
_COLUMNS = "metric,kind,label,count,cases,pct"


def run_inspection(scores: PathScores, alpha) -> DetectionReport:
    """Count the decisions at ``alpha`` of every scored case of a path, for
    every metric the scores hold.

    Held-out healthy records feed the false-alarm columns; missed-damage
    percentages are aggregated per damage label.  The cases' own decisions
    stay in the scores (``CaseTable.damaged``).
    """
    alpha = validate_alpha(alpha)
    counts = {}
    for metric, table in scores.cases.items():
        damaged = table.damaged(alpha)
        labels = np.array(table.labels, dtype=str)
        counts[metric, None] = (int(np.count_nonzero(damaged & table.is_healthy)),
                                int(np.count_nonzero(table.is_healthy)))
        for label in scores.damage_labels:
            cases = labels == label
            counts[metric, label] = (int(np.count_nonzero(cases & ~damaged)),
                                     int(np.count_nonzero(cases)))
    return DetectionReport(path=scores.path, window=scores.window, alpha=alpha,
                           counts=counts, holdout=scores.holdout, m_by_set=dict(scores.m_by_set),
                           band=scores.band, welch=scores.welch)


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocCurve:
    """Operating points over an alpha sweep, with trapezoidal area."""

    metric: str
    sweep: tuple        # alpha levels, ascending
    fprs: tuple
    tprs: tuple
    auc: float
    n_healthy: int
    n_damage: int
    split_note: str

    def to_csv(self) -> str:
        lines = ["alpha,fpr,tpr"]
        lines.extend(f"{fmt(a)},{fmt(x)},{fmt(y)}"
                     for a, x, y in zip(self.sweep, self.fprs, self.tprs))
        lines.append(f"# auc = {self.auc:.6f}")
        lines.append(f"# split = {self.split_note}")
        lines.append(f"# cases = healthy:{self.n_healthy},damage:{self.n_damage}")
        return "\n".join(lines) + "\n"


def _trapezoid_auc(fprs, tprs) -> float:
    pts = [(0.0, 0.0), *sorted(zip(fprs, tprs))]
    if pts[-1] != (1.0, 1.0):
        pts.append((1.0, 1.0))
    x, y = np.asarray(pts).T
    # the trapezoid rule as np.trapezoid (NumPy >= 2.0) evaluates it
    return float(((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0).sum())


def default_alpha_grid() -> np.ndarray:
    """Logarithmic sweep from 1e-6 to 1, 61 points."""
    return np.logspace(-6.0, 0.0, 61)


def roc_sweep(scores: PathScores, metric: str, alpha_grid=None) -> RocCurve:
    """Decision-rule ROC: sweep alpha through the metric's own decisions.

    fpr(alpha) is the fraction of held-out healthy cases with ``p < alpha``,
    tpr(alpha) the same fraction of damage cases.  Each is counted with one
    sort and one ``searchsorted`` per group, whose left insertion point is
    the number of p-values below alpha.
    """
    if metric not in scores.cases:
        raise ValueError(f"metric {metric!r} was not scored; "
                         f"the scores hold {tuple(scores.cases)}")
    table = scores.cases[metric]
    healthy, damage = table.p[table.is_healthy], table.p[~table.is_healthy]
    if not healthy.size or not damage.size:
        raise ValueError(
            f"ROC needs both held-out healthy and damage cases; got "
            f"{healthy.size} healthy and {damage.size} damage for metric {metric!r}"
        )
    grid = default_alpha_grid() if alpha_grid is None else alpha_grid
    grid = np.sort([validate_alpha(a) for a in grid])
    fprs, tprs = (tuple((np.searchsorted(np.sort(p), grid, side="left") / p.size).tolist())
                  for p in (healthy, damage))
    return RocCurve(metric=metric, sweep=tuple(grid.tolist()), fprs=fprs, tprs=tprs,
                    auc=_trapezoid_auc(fprs, tprs), n_healthy=healthy.size,
                    n_damage=damage.size,
                    split_note=f"train M={_m_note(scores.m_by_set)}, holdout={scores.holdout}")


# ---------------------------------------------------------------------------
# summary tables
# ---------------------------------------------------------------------------

def _pct_str(p) -> str:
    return "-" if p is None else f"{p:.10g}"


def summary_table(reports) -> str:
    """Render detection reports as aligned text, one block per alpha.

    Rows are metrics; columns are the false-alarm percentage followed by the
    missed-damage percentage per damage label, in the label order of the first
    block by alpha, path and window.  All reports must agree on the label set.
    """
    reports = sorted(reports, key=lambda r: (r.alpha, r.path, r.window))
    if not reports:
        raise ValueError("no reports to summarize")
    labels = reports[0].damage_labels
    for r in reports[1:]:
        if set(r.damage_labels) != set(labels):
            raise ValueError(
                f"inconsistent damage labels across reports: "
                f"{labels} vs {r.damage_labels}"
            )
    blocks = []
    for rep in reports:
        head = [f"alpha = {fmt(rep.alpha)}   path = {rep.path}   window = {rep.window}"]
        cols = ["metric", "false_alarm_%"] + [f"missed_%[{label}]" for label in labels]
        body = [[metric, *(_pct_str(rep.pct(metric, label)) for label in (None, *labels))]
                for metric in rep.metrics]
        widths = [max(len(col), *(len(r[i]) for r in body)) if body else len(col)
                  for i, col in enumerate(cols)]
        lines = head
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip())
        for r in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        lines.append(
            f"[M={_m_note(rep.m_by_set)}; holdout={rep.holdout}; band={_band_str(rep.band)}; "
            f"welch L={rep.welch.segment_length} overlap={fmt(rep.welch.overlap_fraction)} "
            f"nfft={rep.welch.nfft} {rep.welch.window_kind}]"
        )
        blocks.append("\n".join(lines))
    return ("\n\n".join(blocks)) + "\n"
