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
``(metric, label) -> (count, cases)`` entry per row in row order, and
``from_csv`` refuses rows that do not add up.  ``detect`` writes the per-case
verdict rows straight from the case tables.  The curves ``detect`` plots
(``statistic_curves``) use the same per-bin expressions and the critical
points, over the same band: one array per set and metric, a row per
inspected record and a column per in-band bin.  Every rule of a metric,
input checks included, lives in ``detectors``, where the scalar detectors
build on it too; this module builds, stacks and chunks the cases.  The tests
hold both paths equal to call-by-call oracles.
"""

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .dataio import _utf8_text, fmt, read_signal
from .detectors import (BaselineEnsemble, _band_mask, _check_probe, _critical_points,
                        _damage_index, _dof, _live_bins, _p_value, _statistic)
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
    "score_roc",
    "default_alpha_grid",
    "summary_table",
]

METRICS = ("f", "fm", "z", "janapati", "qiu")
_DI_METRICS = ("janapati", "qiu")
_HEADER = "file,label,path_id,set_id"
_REPORT_KEYS = ("path", "window", "alpha", "welch", "holdout", "m_train")


@dataclass(frozen=True)
class ManifestEntry:
    file: str
    label: str
    path_id: str
    set_id: str


@dataclass
class DatasetManifest:
    """Index of one dataset: signal files, windows and analysis defaults."""

    entries: tuple
    sample_rate: float
    baseline_label: str = "healthy"
    packet_windows: dict = field(default_factory=dict)
    band: tuple = None
    base_dir: Path = Path(".")

    def __setattr__(self, name, value):
        """Setting ``entries`` takes each as a ``ManifestEntry`` and groups
        them by path and set once, for the lookups below; they are kept as a
        tuple, so that the grouping cannot go stale by an edit in place."""
        if name == "entries":
            value = tuple(e if isinstance(e, ManifestEntry) else ManifestEntry(*e)
                          for e in value)
            by_path, positions = {}, {}
            for e in value:
                in_path = by_path.setdefault(e.path_id, [])
                positions.setdefault(e.path_id, {}).setdefault(e.set_id, []).append(len(in_path))
                in_path.append(e)
            super().__setattr__("_by_path", by_path)
            super().__setattr__("_positions", positions)
        super().__setattr__(name, value)

    def __post_init__(self):
        self.sample_rate = _checked_rate(self.sample_rate)
        self.packet_windows = {
            str(name): (int(start), int(length))
            for name, (start, length) in self.packet_windows.items()
        }
        for name, (start, length) in self.packet_windows.items():
            if start < 0 or length < 1:
                raise ValueError(f"window {name!r}: bad range ({start}, {length})")
        if self.band is not None:
            self.band = (float(self.band[0]), float(self.band[1]))
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
        entries = []
        key_lines, file_lines = {}, {}  # the line of each header key and listed file
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
                entry = ManifestEntry(*[p.strip() for p in parts])
                for name in ("file", "label"):
                    if not getattr(entry, name):
                        raise ValueError(f"{path}:{ln}: empty {name} field")
                first = file_lines.setdefault((entry.path_id, entry.set_id, entry.file), ln)
                if first != ln:
                    raise ValueError(f"{path}:{ln}: {entry.file} is listed again for path "
                                     f"{entry.path_id!r}, set {entry.set_id!r} "
                                     f"(first on line {first})")
                entries.append(entry)
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
                        lo, hi = value.split(",")
                        meta[key] = (float(lo), float(hi))
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
        packet = extract_packet(manifest.load_entry(entry), window, manifest)
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
            return _damage_index(metric, gram[i, j], energy[i], energy[j], sums[i], sums[j])

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
        for metric, cols in _score_set(loaded, metrics, band, manifest.baseline_label).items():
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

@dataclass(frozen=True)
class DetectionReport:
    """The counts of one path, window and alpha, as ``report_*.csv`` lists
    them: ``counts`` maps ``(metric, label)`` to ``(count, cases)`` in the
    file's row order, with label ``None`` for a metric's false-alarm row."""

    path: str
    window: str
    alpha: float
    counts: dict
    holdout: int
    m_by_set: dict
    band: tuple
    welch: WelchConfig

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
        lines = [
            f"# path = {self.path}",
            f"# window = {self.window}",
            f"# alpha = {fmt(self.alpha)}",
            f"# band = {_band_str(self.band)}",
            f"# welch = L={self.welch.segment_length},overlap={fmt(self.welch.overlap_fraction)},"
            f"nfft={self.welch.nfft},window={self.welch.window_kind},"
            f"detrend={int(self.welch.detrend_mean)}",
            f"# holdout = {self.holdout}",
            f"# m_train = {_m_note(self.m_by_set)}",
            "metric,kind,label,count,cases,pct",
        ]
        for (metric, label), (count, cases) in self.counts.items():
            kind = "false_alarm," if label is None else f"missed,{label}"
            lines.append(f"{metric},{kind},{count},{cases},{_pct_cell(count, cases)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DetectionReport":
        """The report a ``to_csv`` text holds.  A repeated header, an alpha
        outside (0, 1], a row of an unknown kind, a repeated row, a count
        outside 0 to its cases, a pct other than ``to_csv`` writes for the
        row, and a metric without its false-alarm row or a missed row for a
        damage label of the report are refused.  Lines end at LF, as
        ``dataio._utf8_text`` gives them; a form feed or U+2028 inside a line
        is whitespace, not a line end."""
        meta, header_line = {}, {}
        counts = {}
        for ln, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("metric,"):
                continue
            try:
                if line.startswith("#"):
                    key, value = (s.strip() for s in line[1:].split("=", 1))
                else:
                    metric, kind, label, count, ncases, pct = line.split(",")
                    count, ncases = int(count), int(ncases)
            except ValueError:
                raise ValueError(f"line {ln}: expected a '# key = value' header or a "
                                 f"metric,kind,label,count,cases,pct row") from None
            if line.startswith("#"):
                if key in meta:
                    raise ValueError(f"line {ln}: a second '# {key}' header")
                meta[key], header_line[key] = value, ln
                continue
            if kind not in ("false_alarm", "missed") or (kind == "missed") != bool(label):
                raise ValueError(f"line {ln}: kind {kind!r} with label {label!r}: expected "
                                 f"false_alarm with no label or missed with a damage label")
            key = (metric, label or None)
            if key in counts:
                raise ValueError(f"line {ln}: a second {kind} row for metric {metric!r}"
                                 + (f" and label {label!r}" if label else ""))
            if not 0 <= count <= ncases:
                raise ValueError(f"line {ln}: count {count} is not between 0 and "
                                 f"its {ncases} cases")
            if pct != _pct_cell(count, ncases):
                raise ValueError(f"line {ln}: pct {pct!r} is not {_pct_cell(count, ncases)!r}, "
                                 f"the share of count {count} in its {ncases} cases")
            counts[key] = (count, ncases)
        missing = [k for k in _REPORT_KEYS if k not in meta]
        if missing:
            raise ValueError("not a detect report: missing "
                             + ", ".join(f"'# {k}'" for k in missing) + " header")

        def header(key, parse):
            try:
                return parse(meta[key])
            except (IndexError, KeyError, ValueError):
                raise ValueError(f"line {header_line[key]}: bad '# {key}' header "
                                 f"{meta[key]!r}") from None

        def welch_config(text):
            kv = dict(item.split("=") for item in text.split(","))
            return WelchConfig(segment_length=int(kv["L"]),
                               overlap_fraction=float(kv["overlap"]), nfft=int(kv["nfft"]),
                               window_kind=kv["window"], detrend_mean=bool(int(kv["detrend"])))

        def band_edges(text):
            lo, hi = text.split(":")
            return (float(lo), float(hi))

        band = None
        if meta.get("band") and meta["band"] != "full":
            band = header("band", band_edges)
        m_by_set = header("m_train", lambda text: {  # a set id may hold ':'
            s: int(m) for s, m in (kv.rsplit(":", 1) for kv in text.split(";") if kv)})
        report = cls(path=meta["path"], window=meta["window"],
                     alpha=header("alpha", validate_alpha), counts=counts,
                     holdout=header("holdout", int), m_by_set=m_by_set, band=band,
                     welch=header("welch", welch_config))
        for metric in report.metrics:
            for label in (None, *report.damage_labels):
                if (metric, label) not in counts:
                    raise ValueError(f"metric {metric!r} has no " + (
                        "false_alarm row" if label is None
                        else f"missed row for label {label!r}"))
        return report


def _pct_cell(count: int, cases: int) -> str:
    """A report row's pct as ``to_csv`` writes it: empty with no cases."""
    return "" if cases == 0 else fmt(100.0 * count / cases)


def _band_str(band) -> str:
    return "full" if band is None else f"{fmt(band[0])}:{fmt(band[1])}"


def _m_note(m_by_set: dict) -> str:
    """Training ensemble size per set, as ``set:M`` items in set order."""
    return ";".join(f"{s}:{m}" for s, m in sorted(m_by_set.items()))


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
    """Operating points over a sweep, with trapezoidal area."""

    metric: str
    sweep: tuple        # swept parameter values (alpha levels or raw thresholds)
    sweep_kind: str     # "alpha" | "threshold"
    fprs: tuple
    tprs: tuple
    auc: float
    n_healthy: int
    n_damage: int
    split_note: str = ""

    def to_csv(self) -> str:
        lines = [f"{self.sweep_kind},fpr,tpr"]
        lines.extend(f"{fmt(a)},{fmt(x)},{fmt(y)}"
                     for a, x, y in zip(self.sweep, self.fprs, self.tprs))
        lines.append(f"# auc = {self.auc:.6f}")
        if self.split_note:
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


def _sweep(metric: str, sweep_kind: str, cuts: np.ndarray, healthy: np.ndarray,
           damage: np.ndarray, flag_below: bool, split_note: str = "") -> RocCurve:
    """The ROC point at each cut, counted with one sort and one ``searchsorted``
    per group: a value is flagged if it lies below the cut (``flag_below``),
    else if it lies at or above it.  Each rate is one ``count / n`` division."""
    rates = []
    for values in (healthy, damage):
        below = np.searchsorted(np.sort(values), cuts, side="left")
        rates.append(tuple(((below if flag_below else values.size - below) / values.size).tolist()))
    fprs, tprs = rates
    return RocCurve(metric=metric, sweep=tuple(cuts.tolist()), sweep_kind=sweep_kind,
                    fprs=fprs, tprs=tprs, auc=_trapezoid_auc(fprs, tprs),
                    n_healthy=healthy.size, n_damage=damage.size, split_note=split_note)


def roc_sweep(scores: PathScores, metric: str, alpha_grid=None) -> RocCurve:
    """Decision-rule ROC: sweep alpha through the metric's own decisions.

    fpr(alpha) is the fraction of held-out healthy cases with ``p < alpha``,
    tpr(alpha) the same fraction of damage cases.
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
    return _sweep(metric, "alpha", grid, healthy, damage, flag_below=True,
                  split_note=f"train M={_m_note(scores.m_by_set)}, holdout={scores.holdout}")


def score_roc(healthy_scores, damage_scores, metric: str = "score") -> RocCurve:
    """Threshold-sweep ROC over raw scalar scores (larger = more damaged)."""
    h = np.asarray(list(healthy_scores), dtype=float)
    d = np.asarray(list(damage_scores), dtype=float)
    if h.size == 0 or d.size == 0:
        raise ValueError("need at least one healthy and one damage score")
    thresholds = np.unique(np.concatenate([h, d]))[::-1]
    return _sweep(metric, "threshold", thresholds, h, d, flag_below=False)


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
