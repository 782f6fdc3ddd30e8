"""The array scoring core against the per-case scalar path it replaces.

``scalar_cases`` is the per-case loop over the scalar detectors; every column
of the array path must match it (the damage indices to 1e-12 absolute,
because a Gram matrix sums in another order than ``np.dot``), every verdict
and ROC point must match the critical-point oracle, and every failure must
carry the same message.
"""

import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gwdetect.pipeline as pipeline
import oracles as oc
from gwdetect.dataio import write_signal
from gwdetect.detectors import (
    DAMAGED,
    HEALTHY,
    BaselineEnsemble,
    _band_mask,
    f_statistic,
    fm_statistic,
    janapati_di,
    qiu_di,
    z_statistic,
)
from gwdetect.pipeline import (
    METRICS,
    DatasetManifest,
    LoadedSet,
    ManifestEntry,
    compute_path_scores,
    default_alpha_grid,
    load_set,
    roc_sweep,
    run_inspection,
)
from gwdetect.spectral import PsdEstimate, Signal, WelchConfig

FS = 1e4
WELCH = WelchConfig(segment_length=16, overlap_fraction=0.5, nfft=32)
WINDOW = {"w": (8, 80)}
SUB_BAND = (1000.0, 3000.0)
DI = {"janapati": janapati_di, "qiu": qiu_di}
# the value of each statistic column a metric does not score
UNSCORED = {"stat_lo": math.nan, "stat_hi": math.nan, "dof1": 0, "dof2": 0,
            "center": 0.0, "spread": 0.0}
COLUMNS = ("case_ids", "labels", "is_healthy", *UNSCORED)


def scalar_cases(manifest, sets, metrics, band):
    """Score every case of loaded sets one call at a time with the scalar
    detectors: the reference columns for ``compute_path_scores``."""
    cases = {m: {key: [] for key in COLUMNS} for m in metrics}
    for loaded in sets:
        ens, psds, entries = loaded.ensemble, loaded.psds, loaded.entries
        mask = _band_mask(ens.freq_grid, band)
        names = [f"{loaded.set_id}:{Path(e.file).stem}" for e in entries]
        x = [p.samples for p in loaded.packets]
        d = 2 * ens.k_windows
        in_train = [(i, j) for i in loaded.train for j in loaded.train if i != j]
        healthy = ([(i, j) for i in loaded.train for j in loaded.held]
                   if loaded.held else in_train)
        damage = [(i, j) for j in loaded.inspect for i in loaded.train]
        pairs = [(f"{names[i]}->{Path(entries[j].file).stem}", i, j)
                 for i, j in healthy + damage]
        probes = [(names[j], None, j) for j in loaded.held + loaded.inspect]
        moments = {}
        for metric in (m for m in metrics if m in DI):
            scatter = [DI[metric](x[i], x[j]) for i, j in in_train]
            moments[metric] = {"center": float(np.mean(scatter)),
                               "spread": float(np.std(scatter, ddof=1))}
        for metric in metrics:
            for cid, i, j in (pairs if metric in ("f", *DI) else probes):
                if metric in ("f", "fm"):
                    series = (f_statistic(psds[i], psds[j], 0.5, band) if metric == "f"
                              else fm_statistic(ens, psds[j], 0.5, band))
                    vals = series.values[mask]
                    stats = {"stat_lo": float(vals.min()), "stat_hi": float(vals.max()),
                             "dof1": d if metric == "f" else d * ens.m, "dof2": d}
                elif metric == "z":
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        series = z_statistic(ens, psds[j], 0.5, band)
                    live = mask & (ens.var_psd > 0.0)
                    stats = {"stat_hi": float(series.values[live].max())}
                else:
                    stats = {"stat_hi": DI[metric](x[i], x[j]), **moments[metric]}
                label = entries[j].label
                row = {**UNSCORED, "case_ids": cid, "labels": label,
                       "is_healthy": label == manifest.baseline_label, **stats}
                for key, column in cases[metric].items():
                    column.append(row[key])
    return cases


def write_dataset(root, rng, sizes):
    """Records of several sets, healthy and damaged, dealt in shuffled
    manifest order."""
    entries = []
    t = np.arange(96) / FS
    for s, (n_healthy, n_damage) in enumerate(sizes):
        for k in range(n_healthy + n_damage):
            label = "healthy" if k < n_healthy else "ab"[k % 2]
            x = rng.normal(0.0, 1.0 + 0.2 * rng.random(), t.size)
            if label != "healthy":
                x += 2.0 * np.sin(2 * np.pi * 2000.0 * t)
            name = f"signals/s{s}_{k:02d}.csv"
            (root / "signals").mkdir(exist_ok=True)
            write_signal(root / name, Signal(x, FS, label))
            entries.append(ManifestEntry(name, label, "p", f"set{s}"))
    order = rng.permutation(len(entries))
    return DatasetManifest(entries=[entries[k] for k in order], sample_rate=FS,
                           packet_windows=WINDOW, base_dir=root)


def assert_columns_match(scores, reference):
    for metric, want in reference.items():
        table = scores.cases[metric]
        assert table.metric == metric and len(table) == len(want["case_ids"])
        for key, values in want.items():
            got = getattr(table, key)
            got = list(got) if isinstance(got, tuple) else got.tolist()
            if metric in DI and key in ("stat_hi", "center", "spread"):
                assert all(abs(g - w) <= 1e-12 for g, w in zip(got, values)), (metric, key)
            else:
                assert repr(got) == repr(values), (metric, key)


def assert_decisions_match(scores):
    grid = default_alpha_grid()
    flags = {m: [oc.critical_point_damaged(scores.cases[m], a) for a in grid]
             for m in METRICS}
    for k, alpha in enumerate(grid):
        report = run_inspection(scores, alpha)
        want = [(cid, m, label, DAMAGED if flag else HEALTHY)
                for m in METRICS
                for cid, label, flag in zip(scores.cases[m].case_ids, scores.cases[m].labels,
                                            flags[m][k])]
        assert list(report.verdicts) == want, alpha
        for row in report.rows:
            table, flagged = scores.cases[row.metric], flags[row.metric][k]
            healthy = table.is_healthy.tolist()
            assert row.false_alarms == sum(f for f, h in zip(flagged, healthy) if h)
            assert row.healthy_cases == sum(healthy)
            for label, (missed, n) in row.missed.items():
                damage = [f for f, lbl in zip(flagged, table.labels) if lbl == label]
                assert (missed, n) == (len(damage) - sum(damage), len(damage))
    for metric in METRICS:
        healthy = scores.cases[metric].is_healthy.tolist()
        n_healthy = sum(healthy)
        n_damage = len(healthy) - n_healthy
        if not n_healthy or not n_damage:
            with pytest.raises(ValueError, match="ROC needs both"):
                roc_sweep(scores, metric)
            continue
        curve = roc_sweep(scores, metric)
        assert curve.fprs == tuple(sum(f for f, h in zip(flagged, healthy) if h) / n_healthy
                                   for flagged in flags[metric]), metric
        assert curve.tprs == tuple(sum(f for f, h in zip(flagged, healthy) if not h) / n_damage
                                   for flagged in flags[metric]), metric


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data_seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.tuples(st.integers(3, 6), st.integers(0, 4)), min_size=1, max_size=3),
       holdout=st.integers(0, 4),
       shuffle=st.one_of(st.none(), st.integers(0, 1000)),
       band=st.sampled_from([None, SUB_BAND]),
       chunk=st.sampled_from([pipeline._CHUNK, 17, 50]))
def test_array_core_equals_scalar_path(data_seed, sizes, holdout, shuffle, band, chunk):
    holdout = min(holdout, min(h for h, _ in sizes) - 2)
    rng = np.random.default_rng(data_seed)
    saved = pipeline._CHUNK
    pipeline._CHUNK = chunk  # small chunks split the pairwise ratio into many blocks
    try:
        with tempfile.TemporaryDirectory() as tmp:
            manifest = write_dataset(Path(tmp), rng, sizes)
            scores = compute_path_scores(manifest, "p", "w", WELCH, METRICS,
                                         holdout=holdout, seed=shuffle, band=band)
            assert_columns_match(scores, scalar_cases(manifest, scores.sets, METRICS, band))
            assert_decisions_match(scores)
    finally:
        pipeline._CHUNK = saved


def _same_error(tmp_path, metrics, pick, record=None, band=None):
    """Overwrite the records ``pick`` chooses with ``record`` (zeros by
    default); the array path and the scalar path then fail with the same
    message, which is returned."""
    manifest = write_dataset(tmp_path, np.random.default_rng(3), [(5, 2)])
    for e in pick(manifest):
        samples = np.zeros(96) if record is None else record
        write_signal(manifest.resolve(e), Signal(samples, FS, e.label))
    with pytest.raises(ValueError) as array_err:
        compute_path_scores(manifest, "p", "w", WELCH, metrics, holdout=1, band=band)
    sets = [load_set(manifest, "p", "set0", "w", WELCH, holdout=1)]
    with pytest.raises(ValueError) as scalar_err:
        scalar_cases(manifest, sets, metrics, band)
    assert str(array_err.value) == str(scalar_err.value)
    return str(array_err.value)


def _healthy(k):
    return lambda man: [e for e in man.entries if e.label == "healthy"][k:k + 1]


def _damaged(man):
    return [e for e in man.entries if e.label != "healthy"][:1]


@pytest.mark.parametrize("metric", ["f", "fm"])
def test_probe_psd_zero_in_band_same_error(tmp_path, metric):
    msg = _same_error(tmp_path, [metric], _damaged, band=SUB_BAND)
    assert msg == "unknown PSD is zero inside the verdict band at 1250 Hz"


@pytest.mark.parametrize("metric, pick, expected", [
    ("janapati", _healthy(0), "baseline signal has zero energy"),
    ("janapati", _healthy(1), "unknown signal has zero energy"),
    ("janapati", _damaged, "unknown signal has zero energy"),
    ("qiu", _healthy(0), "both signals must have nonzero energy"),
    ("qiu", _damaged, "both signals must have nonzero energy"),
])
def test_zero_energy_packet_same_error(tmp_path, metric, pick, expected):
    assert _same_error(tmp_path, [metric], pick) == expected


def test_z_every_in_band_bin_dead_same_error(tmp_path):
    same = np.random.default_rng(8).normal(0.0, 1.0, 96)
    every_healthy = lambda man: [e for e in man.entries if e.label == "healthy"]
    msg = _same_error(tmp_path, ["z"], every_healthy, record=same)
    assert msg == "every in-band bin has zero baseline variance"


def test_qiu_clamp_on_scaled_copies(tmp_path):
    """For scaled copies of one packet rho^2 rounds above 1 in some pairs;
    the clamp keeps those indices at 0, as ``qiu_di`` does, not below it."""
    manifest = write_dataset(tmp_path, np.random.default_rng(3), [(6, 2)])
    base = np.random.default_rng(0).normal(0.0, 1.0, 96)
    healthy = [e for e in manifest.entries if e.label == "healthy"]
    for e, scale in zip(healthy, (1.0, 3.0, -0.7, 0.1, 2.5, 1.3)):
        write_signal(manifest.resolve(e), Signal(base * scale, FS, e.label))
    scores = compute_path_scores(manifest, "p", "w", WELCH, ["qiu"], holdout=0)
    table = scores.cases["qiu"]
    healthy = table.stat_hi[table.is_healthy]
    assert healthy.size == 30 and healthy.min() == 0.0
    assert_columns_match(scores, scalar_cases(manifest, scores.sets, ["qiu"], None))


def test_z_skips_a_nan_bin_as_the_scalar_z_does():
    """Four members near the float64 ceiling in one bin overflow that bin's
    ensemble mean and variance to inf, so its ``z`` is inf/inf = NaN.  The
    scalar ``z_statistic`` skips the bin and finds the damage in another one;
    scoring must too, not carry a NaN score and p-value that read as healthy."""
    grid = WELCH.freq_grid(FS)
    rng = np.random.default_rng(4)

    def psd(values):
        return PsdEstimate(values=values, freq_grid=grid, config=WELCH, k_windows=5)

    members = []
    for _ in range(4):
        values = rng.uniform(1.0, 2.0, grid.size)
        values[3] = 1.7e308
        members.append(psd(values))
    values = rng.uniform(1.0, 2.0, grid.size)
    values[6] = 500.0
    probe = psd(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ens = BaselineEnsemble.from_psds(members)
        series = z_statistic(ens, probe, 0.05)
    assert math.isinf(ens.mean_psd[3]) and math.isinf(ens.var_psd[3])
    assert series.verdict == DAMAGED
    entries = tuple(ManifestEntry(f"r{k}.csv", "healthy" if k < 4 else "d", "p", "s")
                    for k in range(5))
    loaded = LoadedSet(set_id="s", entries=entries, packets=(), psds=(*members, probe),
                       train=(0, 1, 2, 3), held=(), inspect=(4,), ensemble=ens)
    cols = pipeline._score_set(loaded, ["z"], None, "healthy")["z"]
    assert cols["stat_hi"].tolist() == [np.fmax.reduce(series.values)]
    assert cols["p"][0] < 0.05


def test_z_partly_dead_bins_through_both_paths():
    """Every member equal in bins 2 and 7 leaves those bins zero variance.
    The scalar ``z_statistic`` warns and names them, scoring skips them in
    silence, and both decide on the same live bins."""
    grid = WELCH.freq_grid(FS)
    rng = np.random.default_rng(11)

    def psd(values):
        return PsdEstimate(values=values, freq_grid=grid, config=WELCH, k_windows=5)

    members = []
    for _ in range(4):
        values = rng.uniform(1.0, 2.0, grid.size)
        values[[2, 7]] = 1.5  # four equal values: the mean is exact, the variance 0
        members.append(psd(values))
    ens = BaselineEnsemble.from_psds(members)
    near_mean = ens.mean_psd + rng.uniform(-0.01, 0.01, grid.size)
    probes = [near_mean.copy() for _ in range(3)]
    probes[1][6] = 50.0       # damage in a live bin
    probes[2][[2, 7]] = 50.0  # damage only in the dead bins
    probes = [psd(v) for v in probes]
    live = ens.var_psd != 0.0
    assert np.flatnonzero(~live).tolist() == [2, 7]

    message = (f"zero baseline variance at {grid[2]:g}, {grid[7]:g} Hz; "
               "these bins are excluded from the verdict")
    series = []
    for probe in probes:
        with pytest.warns(RuntimeWarning, match=re.escape(message)):
            series.append(z_statistic(ens, probe, 0.05))
    entries = tuple(ManifestEntry(f"r{k}.csv", "healthy" if k < 4 else "d", "p", "s")
                    for k in range(7))
    loaded = LoadedSet(set_id="s", entries=entries, packets=(), psds=(*members, *probes),
                       train=(0, 1, 2, 3), held=(), inspect=(4, 5, 6), ensemble=ens)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cols = pipeline._score_set(loaded, ["z"], None, "healthy")["z"]
    assert caught == []
    assert cols["stat_hi"].tolist() == [np.fmax.reduce(s.values[live]) for s in series]
    for alpha in (0.01, 0.05, 0.1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            verdicts = [z_statistic(ens, probe, alpha).verdict for probe in probes]
        assert (cols["p"] < alpha).tolist() == [v == DAMAGED for v in verdicts], alpha
    assert [s.verdict for s in series] == [HEALTHY, DAMAGED, HEALTHY]
