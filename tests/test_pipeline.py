import re

import numpy as np
import pytest

import oracles as oc
from gwdetect.dataio import write_signal
from gwdetect.detectors import _p_value
from gwdetect.pipeline import (
    METRICS,
    CaseTable,
    DatasetManifest,
    ManifestEntry,
    _critical_points,
    compute_path_scores,
    default_alpha_grid,
    extract_packet,
    load_set,
    locate_packet,
    roc_sweep,
    run_inspection,
    score_roc,
    summary_table,
)
from gwdetect.simulate import IDENTITY_DAMAGE, ToneBurstSpec, propagate, tone_burst
from gwdetect.spectral import Signal, WelchConfig


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    man = DatasetManifest(
        entries=[ManifestEntry("signals/a.csv", "healthy", "1-2", "s0"),
                 ManifestEntry("signals/b.csv", "notch", "1-2", "s0")],
        sample_rate=24e6,
        packet_windows={"first-packet": (100, 500), "full": (0, 8000)},
        band=(150e3, 350e3),
        base_dir=tmp_path,
    )
    path = man.save(tmp_path / "manifest.csv")
    loaded = DatasetManifest.load(path)
    assert loaded.entries == man.entries
    assert loaded.sample_rate == 24e6
    assert loaded.packet_windows == man.packet_windows
    assert loaded.band == man.band
    assert loaded.paths() == ["1-2"]
    assert loaded.sets_for("1-2") == ["s0"]


def test_manifest_requires_baseline_per_path(tmp_path):
    man = DatasetManifest(
        entries=[ManifestEntry("a.csv", "notch", "1-2", "s0")],
        sample_rate=1e6,
        packet_windows={"w": (0, 10)},
        base_dir=tmp_path,
    )
    with pytest.raises(ValueError):
        man.validate()


def _scanned_sets(man, path):
    """``sets_for`` as a scan of every entry, the reference for the grouping."""
    seen = []
    for e in man.entries:
        if e.path_id == path and e.set_id not in seen:
            seen.append(e.set_id)
    return seen


def test_many_set_manifest_lookups_equal_a_scan_of_every_entry():
    rng = np.random.default_rng(3)
    rows = [(f"r{k:04d}.csv", ("healthy", "notch")[k % 3 == 0], f"p{rng.integers(3)}",
             f"s{rng.integers(250)}") for k in range(1500)]
    man = DatasetManifest(entries=rows, sample_rate=1e6)
    for entries in (man.entries, man.entries[::-1]):  # setting entries groups them again
        man.entries = entries
        assert man.paths() == list(dict.fromkeys(e.path_id for e in entries))
        for path in man.paths() + ["absent"]:
            in_path = [e for e in entries if e.path_id == path]
            assert man.entries_for(path) == in_path
            assert man.entries_for(path, label="notch") == [e for e in in_path
                                                             if e.label == "notch"]
            assert man.sets_for(path) == _scanned_sets(man, path)
            for s in man.sets_for(path) + ["absent"]:
                assert man.entries_for(path, set_id=s) == [e for e in in_path if e.set_id == s]
                assert man.entries_for(path, s, "healthy") == [
                    e for e in in_path if e.set_id == s and e.label == "healthy"]
                # the index in each psd_ file name: the place among the path's entries
                assert man.positions_for(path, s) == [i for i, e in enumerate(in_path)
                                                      if e.set_id == s]
    man.validate()
    man.entries = [e for e in man.entries if e.path_id != "p1" or e.label != "healthy"]
    with pytest.raises(ValueError, match="'p1' has no baseline entry"):
        man.validate()


@pytest.mark.parametrize("rate", ["inf", "nan", "-inf", "0", "-5"])
def test_manifest_rejects_a_sample_rate_that_is_not_finite_and_positive(tmp_path, rate):
    with pytest.raises(ValueError, match="sample_rate must be finite and > 0"):
        DatasetManifest(entries=[ManifestEntry("a.csv", "healthy", "1-2", "s0")],
                        sample_rate=float(rate))
    path = tmp_path / "manifest.csv"
    path.write_text(f"# comment\nsample_rate = {rate}\nfile,label,path_id,set_id\n"
                    "a.csv,healthy,1-2,s0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad value '{rate}' for 'sample_rate'")):
        DatasetManifest.load(path)


def test_manifest_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "manifest.csv"
    bad.write_text("sample_rate = 1000\nfile,label,path_id,set_id\nonly,three,fields\n")
    with pytest.raises(ValueError):
        DatasetManifest.load(bad)


# ---------------------------------------------------------------------------
# packet windowing
# ---------------------------------------------------------------------------

def _packet_manifest():
    return DatasetManifest(entries=[ManifestEntry("x.csv", "healthy", "p", "s")],
                           sample_rate=24e6,
                           packet_windows={"first-packet": (0, 500),
                                           "full": (0, 8000),
                                           "tail": (7800, 500)})


def test_extract_packet_explicit_windows():
    man = _packet_manifest()
    sig = Signal(np.arange(8000, dtype=float) + 1.0, 24e6, label="healthy")
    short = extract_packet(sig, "first-packet", man)
    assert short.samples.size == 500
    assert np.array_equal(short.samples, sig.samples[:500])
    assert short.label == "healthy"
    full = extract_packet(sig, "full", man)
    assert full.samples.size == 8000
    with pytest.raises(ValueError):
        extract_packet(sig, "tail", man)  # 7800 + 500 > 8000
    with pytest.raises(ValueError):
        extract_packet(sig, "missing", man)


def test_locate_packet_finds_burst_onset():
    burst = tone_burst(ToneBurstSpec(center_freq=250e3))
    received = propagate(burst, 50e-6, 1.0, IDENTITY_DAMAGE, noise_std=1e-4,
                         seed=0, n_samples=8000)
    start = locate_packet(received, threshold=0.1)
    assert abs(start - 1200) <= 25
    man = _packet_manifest()
    auto = extract_packet(received, "first-packet", man, auto_locate=True)
    assert auto.samples.size == 500
    with pytest.raises(ValueError):
        locate_packet(Signal(np.zeros(100), 24e6))


# ---------------------------------------------------------------------------
# baseline phase
# ---------------------------------------------------------------------------

def test_run_baseline_split(ladder_dataset, bench_welch):
    loaded = load_set(ladder_dataset, "1-2", None, "first-packet", bench_welch,
                      holdout=5)
    assert loaded.ensemble.m == 15
    assert len(loaded.held) == 5
    assert loaded.ensemble.k_windows == 9
    all_in = load_set(ladder_dataset, "1-2", None, "first-packet", bench_welch,
                      holdout=0)
    assert all_in.ensemble.m == 20 and all_in.held == ()


def test_run_baseline_shuffle_determinism(ladder_dataset, bench_welch):
    a, b, c = (load_set(ladder_dataset, "1-2", None, "first-packet", bench_welch,
                        holdout=5, seed=seed).ensemble for seed in (11, 11, 12))
    assert np.array_equal(a.mean_psd, b.mean_psd)
    assert not np.array_equal(a.mean_psd, c.mean_psd)


def test_run_baseline_insufficient_entries(ladder_dataset, bench_welch):
    with pytest.raises(ValueError):
        load_set(ladder_dataset, "1-2", None, "first-packet", bench_welch, holdout=19)


def test_load_set_reads_once_and_splits_by_index(ladder_dataset, bench_welch):
    loaded = load_set(ladder_dataset, "1-2", "set0", "first-packet", bench_welch,
                      holdout=5, seed=11)
    n = len(ladder_dataset.entries_for("1-2", set_id="set0"))
    assert len(loaded.entries) == len(loaded.packets) == len(loaded.psds) == n
    assert sorted(loaded.train + loaded.held + loaded.inspect) == list(range(n))
    assert len(loaded.held) == 5 and len(loaded.inspect) == 30
    assert all(loaded.entries[i].label != "healthy" for i in loaded.inspect)
    # packets own their samples: the full-length records are not kept alive
    assert all(p.samples.base is None and p.samples.size == 500
               for p in loaded.packets)
    # one set, so pooling every set of the path (set_id=None) gives the same split
    pooled = load_set(ladder_dataset, "1-2", None, "first-packet", bench_welch,
                      holdout=5, seed=11)
    assert np.array_equal(loaded.ensemble.mean_psd, pooled.ensemble.mean_psd)
    assert all(np.array_equal(loaded.psds[i].values, pooled.psds[k].values)
               for i, k in zip(loaded.held, pooled.held))
    with pytest.raises(ValueError, match="holdout must be >= 0"):
        load_set(ladder_dataset, "1-2", "set0", "first-packet", bench_welch,
                 holdout=-1)


def test_split_hygiene(tmp_path, bench_welch):
    # corrupting a held-out file must not change the trained ensemble
    from gwdetect.simulate import synth_dataset

    man = synth_dataset(tmp_path, n_baseline=8, damage_specs=[], seed=9,
                        n_samples=3000)
    ens_before = load_set(man, "1-2", None, "first-packet", bench_welch,
                          holdout=2).ensemble
    victim = man.entries_for("1-2", label="healthy")[-1]  # last = held out
    sig = man.load_entry(victim)
    write_signal(man.resolve(victim),
                 Signal(sig.samples * 5.0 + 1.0, sig.sample_rate, sig.label))
    ens_after = load_set(man, "1-2", None, "first-packet", bench_welch,
                         holdout=2).ensemble
    assert np.array_equal(ens_before.mean_psd, ens_after.mean_psd)
    assert np.array_equal(ens_before.var_psd, ens_after.var_psd)


# ---------------------------------------------------------------------------
# inspection
# ---------------------------------------------------------------------------

def test_run_inspection_report_structure(ladder_dataset, bench_welch):
    rep = run_inspection(compute_path_scores(ladder_dataset, "1-2", "first-packet",
                                             bench_welch, ["z", "f"], holdout=5), 0.05)
    assert {r.metric for r in rep.rows} == {"z", "f"}
    assert len(rep.damage_labels) == 6
    z_row = next(r for r in rep.rows if r.metric == "z")
    assert z_row.healthy_cases == 5
    for label in rep.damage_labels:
        assert z_row.missed[label][1] == 5
    f_row = next(r for r in rep.rows if r.metric == "f")
    assert f_row.healthy_cases == 15 * 5
    for label in rep.damage_labels:
        assert f_row.missed[label][1] == 15 * 5
    # strong synthetic damage at 40 dB SNR: the deviation statistic misses nothing
    assert all(z_row.missed_pct(label) == 0.0 for label in rep.damage_labels)


def test_run_inspection_healthy_only(tmp_path, bench_welch):
    from gwdetect.simulate import synth_dataset

    man = synth_dataset(tmp_path, n_baseline=8, damage_specs=[], seed=4,
                        n_samples=3000)
    rep = run_inspection(compute_path_scores(man, "1-2", "first-packet", bench_welch,
                                             ["z"], holdout=3), 0.05)
    assert rep.damage_labels == ()
    row = rep.rows[0]
    assert row.healthy_cases == 3
    assert row.missed == {}


def test_decisions_cover_exactly_the_scored_metrics(ladder_dataset, bench_welch):
    scores = compute_path_scores(ladder_dataset, "1-2", "first-packet", bench_welch,
                                 ["z", "qiu"], holdout=5)
    rep = run_inspection(scores, 0.05)
    assert [r.metric for r in rep.rows] == ["z", "qiu"]
    assert {metric for _, metric, _, _ in rep.verdicts} == {"z", "qiu"}
    with pytest.raises(ValueError,
                       match=r"metric 'f' was not scored; the scores hold \('z', 'qiu'\)"):
        roc_sweep(scores, "f")


def test_report_csv_roundtrip_and_recount(ladder_dataset, bench_welch):
    from gwdetect.pipeline import DetectionReport

    rep = run_inspection(compute_path_scores(ladder_dataset, "1-2", "first-packet",
                                             bench_welch, ["z", "qiu"], holdout=5), 0.05)
    text = rep.to_csv()
    back = DetectionReport.from_csv(text)
    assert back.alpha == rep.alpha
    assert back.damage_labels == rep.damage_labels
    for row, orig in zip(back.rows, rep.rows):
        assert row.false_alarms == orig.false_alarms
        assert row.healthy_cases == orig.healthy_cases
        assert row.missed == orig.missed
    # printed percentages are exactly count ratios
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("metric,"):
            continue
        metric, kind, label, count, cases, pct = line.split(",")
        if pct:
            assert float(pct) == pytest.approx(100.0 * int(count) / int(cases),
                                               rel=1e-12)


def test_report_reproducibility(ladder_dataset, bench_welch):
    a, b = (run_inspection(compute_path_scores(ladder_dataset, "1-2", "first-packet",
                                               bench_welch, ["f", "z", "janapati"],
                                               holdout=5, seed=31), 0.05)
            for _ in range(2))
    assert a.to_csv() == b.to_csv()
    assert a.verdicts == b.verdicts


def _noise_only_manifest(tmp_path, n_healthy, n_fake, n_samples=144, fs=1e4,
                         seed=0):
    """Healthy records plus 'damage' records drawn from the same generator."""
    rng = np.random.default_rng(seed)
    entries = []
    sig_dir = tmp_path / "signals"
    sig_dir.mkdir()
    for i in range(n_healthy + n_fake):
        label = "healthy" if i < n_healthy else "fake"
        name = f"signals/n{i:03d}.csv"
        write_signal(tmp_path / name,
                     Signal(rng.normal(0.0, 1.0, n_samples), fs, label))
        entries.append(ManifestEntry(name, label, "p", "s"))
    man = DatasetManifest(entries=entries, sample_rate=fs,
                          packet_windows={"w": (0, n_samples)}, base_dir=tmp_path)
    man.save(tmp_path / "manifest.csv")
    return man


def test_null_calibration_through_run_inspection(tmp_path):
    # damage drawn from the healthy generator: with the exact-null ratio test
    # at a single bin, missed-damage sits near 100*(1-alpha) and false alarms
    # near 100*alpha
    man = _noise_only_manifest(tmp_path, n_healthy=20, n_fake=150, seed=3)
    cfg = WelchConfig(16, 0.0, 16, "rectangular", detrend_mean=False)
    f4 = cfg.freq_grid(1e4)[4]
    alpha = 0.1
    rep = run_inspection(compute_path_scores(man, "p", "w", cfg, ["f"], holdout=10,
                                             band=(f4, f4)), alpha)
    row = rep.rows[0]
    assert row.healthy_cases == 10 * 10
    assert row.missed["fake"][1] == 10 * 150
    assert row.missed_pct("fake") == pytest.approx(100.0 * (1 - alpha), abs=5.0)
    assert row.false_alarm_pct == pytest.approx(100.0 * alpha, abs=8.0)


# ---------------------------------------------------------------------------
# p-values
# ---------------------------------------------------------------------------

def test_p_value_edge_cases_match_critical_points():
    grid = default_alpha_grid()
    # a reference PSD that is zero in band: stat_lo = 0 is damaged at every alpha
    f_stats = {"stat_hi": np.array([1.0, 3.0]), "stat_lo": np.array([0.0, 0.0]),
               "dof1": 18, "dof2": 18}
    # a DI with no healthy scatter: damaged off center at every alpha, never on it
    di_stats = {"stat_hi": np.array([0.25, 0.5]), "center": 0.5, "spread": 0.0}
    for metric, stats, p_want, damaged in (("f", f_stats, [0.0, 0.0], [True, True]),
                                           ("janapati", di_stats, [0.0, 1.0], [True, False])):
        p = _p_value(metric, **stats)
        assert p.tolist() == p_want
        table = CaseTable.concat(metric, [{"case_ids": ("a", "b"), "labels": ("x", "x"),
                                           "is_healthy": False, **stats, "p": p}])
        assert all((table.p < a).tolist() == damaged == oc.critical_point_damaged(table, a)
                   for a in grid), metric


def test_p_values_lie_in_unit_interval_and_decide(ladder_dataset, bench_welch):
    scores = compute_path_scores(ladder_dataset, "1-2", "first-packet", bench_welch,
                                 METRICS, holdout=5)
    for metric, table in scores.cases.items():
        assert table.p.shape == (len(table),)
        assert ((table.p >= 0.0) & (table.p <= 1.0)).all(), metric
        for alpha in (0.01, 0.05):
            assert (table.p < alpha).tolist() == oc.critical_point_damaged(table, alpha)


def test_decisions_solve_no_quantile(ladder_dataset, bench_welch, monkeypatch):
    import gwdetect.detectors as detectors
    import gwdetect.statdist as statdist

    scores = compute_path_scores(ladder_dataset, "1-2", "first-packet", bench_welch,
                                 METRICS, holdout=5)
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for module in (detectors, statdist):
        for name in ("f_quantile", "normal_quantile"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for alpha in (1e-6, 0.01, 0.05, 1.0):
        run_inspection(scores, alpha)
    for metric in METRICS:
        roc_sweep(scores, metric)
    assert calls == []
    _critical_points("f", 0.05, 18, 18)  # the wrapper sees the critical-point path
    assert sorted(calls) == ["f_quantile", "f_quantile"]


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

def test_roc_sweep_perfect_separation(ladder_dataset, bench_welch):
    curve = roc_sweep(compute_path_scores(ladder_dataset, "1-2", "first-packet",
                                          bench_welch, ["z"], holdout=5), "z")
    assert curve.auc == 1.0
    assert curve.sweep[0] == pytest.approx(1e-6)
    assert curve.sweep[-1] == 1.0
    assert curve.fprs[-1] == 1.0 and curve.tprs[-1] == 1.0


def test_roc_monotone_along_alpha(ladder_dataset, bench_welch):
    scores = compute_path_scores(ladder_dataset, "1-2", "first-packet", bench_welch,
                                 ["z", "f", "qiu"], holdout=5)
    for metric in ("z", "f", "qiu"):
        curve = roc_sweep(scores, metric)
        assert all(b >= a for a, b in zip(curve.fprs, curve.fprs[1:]))
        assert all(b >= a for a, b in zip(curve.tprs, curve.tprs[1:]))


def test_roc_requires_both_splits(tmp_path, bench_welch):
    from gwdetect.simulate import synth_dataset

    man = synth_dataset(tmp_path, n_baseline=6, damage_specs=[], seed=8,
                        n_samples=3000)
    with pytest.raises(ValueError):
        roc_sweep(compute_path_scores(man, "1-2", "first-packet", bench_welch, ["z"],
                                      holdout=2), "z")  # no damage entries


def test_random_scores_give_half_auc():
    rng = np.random.default_rng(77)
    aucs = np.empty(2000)
    for i in range(2000):
        aucs[i] = score_roc(rng.random(20), rng.random(20)).auc
    assert np.mean(aucs) == pytest.approx(0.5, abs=0.05)


def test_score_roc_matches_rank_auc_oracle():
    rng = np.random.default_rng(78)
    for _ in range(30):
        h = rng.normal(0.0, 1.0, 25)
        d = rng.normal(0.8, 1.2, 15)
        if rng.random() < 0.5:  # exercise ties
            d[:5] = h[:5]
        auc = score_roc(h, d).auc
        assert auc == pytest.approx(oc.mann_whitney_auc(h, d), abs=1e-9)


def test_trapezoid_auc_matches_numpy_trapezoid():
    from gwdetect.pipeline import _trapezoid_auc

    oracle = getattr(np, "trapezoid", None) or np.trapz
    rng = np.random.default_rng(79)
    for n in (1, 2, 7, 61, 200):
        fprs = list(np.sort(rng.random(n)).round(2))  # rounding makes ties
        tprs = list(np.sort(rng.random(n)))
        if n % 2:
            fprs[-1] = tprs[-1] = 1.0
        pts = [(0.0, 0.0)] + sorted(zip(fprs, tprs))
        if pts[-1] != (1.0, 1.0):
            pts.append((1.0, 1.0))
        xs, ys = zip(*pts)
        assert _trapezoid_auc(fprs, tprs) == float(oracle(ys, xs))


def test_verdicts_monotone_in_alpha(ladder_dataset, bench_welch):
    scores = compute_path_scores(ladder_dataset, "1-2", "first-packet",
                                 bench_welch, ["f", "fm", "z", "janapati", "qiu"],
                                 holdout=5)
    grid = default_alpha_grid()
    for metric, table in scores.cases.items():
        flags = [oc.critical_point_damaged(table, a) for a in grid]
        for k, case_id in enumerate(table.case_ids):
            column = [flagged[k] for flagged in flags]
            assert all(b >= a for a, b in zip(column, column[1:])), (metric, case_id)


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

def test_summary_table_formatting(ladder_dataset, bench_welch):
    scores = compute_path_scores(ladder_dataset, "1-2", "first-packet",
                                 bench_welch, ["z"], holdout=5)
    reports = [run_inspection(scores, a) for a in (0.05, 0.01)]
    table = summary_table(reports)
    assert table.count("alpha =") == 2  # one block per alpha
    assert "missed_%[att-0.9]" in table
    assert "[M=set0:15; holdout=5;" in table


def test_summary_table_zero_misses_single_metric(tmp_path, bench_welch):
    from gwdetect.simulate import DamageSpec, synth_dataset

    man = synth_dataset(tmp_path, n_baseline=6,
                        damage_specs=[DamageSpec(attenuation=0.5, label="big")],
                        n_per_damage=2, seed=12, n_samples=3000)
    rep = run_inspection(compute_path_scores(man, "1-2", "first-packet", bench_welch,
                                             ["z"], holdout=2), 0.05)
    table = summary_table([rep])
    row = [ln for ln in table.splitlines() if ln.startswith("z")][0]
    assert row.split()[-1] == "0"


def test_summary_table_inconsistent_labels(ladder_dataset, tmp_path, bench_welch):
    from gwdetect.simulate import DamageSpec, synth_dataset

    other = synth_dataset(tmp_path, n_baseline=6,
                          damage_specs=[DamageSpec(attenuation=0.6, label="odd")],
                          n_per_damage=1, seed=13, n_samples=3000)
    rep_a = run_inspection(compute_path_scores(ladder_dataset, "1-2", "first-packet",
                                               bench_welch, ["z"], holdout=5), 0.05)
    rep_b = run_inspection(compute_path_scores(other, "1-2", "first-packet", bench_welch,
                                               ["z"], holdout=2), 0.05)
    with pytest.raises(ValueError):
        summary_table([rep_a, rep_b])
    with pytest.raises(ValueError):
        summary_table([])
