import re

import numpy as np
import pytest

import oracles as oc
from gwdetect.dataio import write_signal
from gwdetect.detectors import BaselineEnsemble, _p_value
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
    roc_sweep,
    run_inspection,
    statistic_curves,
    summary_table,
)
from gwdetect.simulate import attenuation_ladder, synth_dataset
from gwdetect.spectral import Signal, WelchConfig, welch_psd


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


def test_manifest_entries_cannot_go_stale_by_an_edit_in_place():
    """The lookups are grouped when ``entries`` is set, so an edit in place
    raises instead of leaving them stale; setting the entries groups them
    again."""
    man = DatasetManifest(entries=[ManifestEntry("signals/a.csv", "healthy", "1-2", "set0")],
                          sample_rate=1e6)
    moved = ManifestEntry("signals/a.csv", "healthy", "1-2", "set1")
    extra = ManifestEntry("signals/x.csv", "healthy", "9-9", "set0")
    with pytest.raises(AttributeError):
        man.entries.append(extra)
    with pytest.raises(TypeError):
        man.entries[0] = moved
    assert man.paths() == ["1-2"] and man.sets_for("1-2") == ["set0"]
    man.entries = [moved, extra]
    assert man.entries == (moved, extra)
    assert man.paths() == ["1-2", "9-9"] and man.sets_for("1-2") == ["set1"]
    assert man.entries_for("1-2", "set1") == [moved]


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


_MANIFEST_LINES = ["sample_rate = 1000", "window.all = 0,10", "file,label,path_id,set_id",
                   "a.csv,healthy,1-2,s0", "b.csv,notch,1-2,s0",
                   # one file under several paths or sets, and empty path and set ids
                   "a.csv,healthy,2-3,s0", "a.csv,healthy,1-2,s1", "c.csv,healthy,,"]


@pytest.mark.parametrize("line, new, message", [
    (3, "sample_rate = 2000", "a second 'sample_rate' key (first on line 1)"),
    (3, "window.all = 0,5", "a second 'window.all' key (first on line 2)"),
    (9, "d.csv,,1-2,s0", "empty label field"),
    (9, ",healthy,1-2,s0", "empty file field"),
    (9, "c.csv,healthy,,", "c.csv is listed again for path '', set '' (first on line 8)"),
    (9, "./c.csv,healthy,,", "./c.csv is listed again for path '', set '' (first on line 8)"),
])
def test_manifest_refuses_empty_fields_and_repeats(tmp_path, line, new, message):
    """A row without a file or a label, a header key given twice and a file
    listed twice in one (path, set), here with empty ids, are refused, naming
    the line."""
    path = tmp_path / "m.csv"
    path.write_text("\n".join(_MANIFEST_LINES) + "\n")
    assert len(DatasetManifest.load(path).entries) == 5
    lines = list(_MANIFEST_LINES)
    lines.insert(line - 1, new)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
        DatasetManifest.load(path)


_ENTRY = ("signals/a.csv", "healthy", "1-2", "s0")


@pytest.mark.parametrize("change, message", [
    ({"entries": [_ENTRY, _ENTRY]},
     "entry 1: signals/a.csv is listed again for path '1-2', set 's0' (first as entry 0)"),
    ({"entries": [_ENTRY, ("signals/./a.csv", "notch", "1-2", "s0")]},
     "entry 1: signals/./a.csv is listed again for path '1-2', set 's0' (first as entry 0)"),
    ({"entries": [("signals//a.csv", "healthy", "1-2", "s0"), _ENTRY]},
     "entry 1: signals/a.csv is listed again for path '1-2', set 's0' (first as entry 0)"),
    ({"entries": [_ENTRY, ("signals/b.csv", "", "1-2", "s0")]}, "empty label field"),
    ({"entries": [("", "healthy", "1-2", "s0")]}, "empty file field"),
    ({"entries": [("signals/a,b.csv", "healthy", "1-2", "s0")]},
     "file field 'signals/a,b.csv' holds ','"),
    ({"entries": [("signals/a.csv", "healthy", "1,2", "s0")]}, "path_id field '1,2' holds ','"),
    ({"entries": [("signals/a.csv", "heal\nthy", "1-2", "s0")]},
     "label field 'heal\\nthy' holds a line break"),
    ({"entries": [("signals/a.csv", "healthy", "1-2", "s0\r")]},
     "set_id field 's0\\r' holds a line break"),
    ({"entries": [("signals/a.csv", "healthy", "1-2\t", "s0")]},
     "path_id field '1-2\\t' has whitespace at an end"),
    ({"entries": [(" signals/a.csv", "healthy", "1-2", "s0")]},
     "file field ' signals/a.csv' has whitespace at an end"),
    ({"entries": [("#a.csv", "healthy", "1-2", "s0")]},
     "file field '#a.csv' starts with '#' and would read as a comment"),
    ({"entries": [_ENTRY, ("file", "label", "path_id", "set_id")]},
     "the entry would read as the 'file,label,path_id,set_id' header"),
    ({"baseline_label": "heal\rthy"}, "baseline_label 'heal\\rthy' holds a line break"),
    ({"baseline_label": "healthy "}, "baseline_label 'healthy ' has whitespace at an end"),
    ({"packet_windows": {"a=b": (0, 10)}}, "window name 'a=b' holds '='"),
    ({"packet_windows": {"a\nb": (0, 10)}}, "window name 'a\\nb' holds a line break"),
    ({"packet_windows": {" a": (0, 10)}}, "window name ' a' has whitespace at an end"),
    ({"band": (float("nan"), 1e5)}, "band (nan, 100000.0) holds NaN"),
    ({"entries": [("signals/a.csv", "healthy", "1-2", "a;b")]}, "set_id field 'a;b' holds ';'"),
    ({"entries": [("signals/a\udc80.csv", "healthy", "1-2", "s0")]},
     "file field 'signals/a\\udc80.csv' does not encode as UTF-8"),
    ({"baseline_label": "heal\udc80thy"},
     "baseline_label 'heal\\udc80thy' does not encode as UTF-8"),
    ({"packet_windows": {"w\udc80": (0, 10)}},
     "window name 'w\\udc80' does not encode as UTF-8"),
    ({"entries": [("signals/a.csv", "healthy", 12, "s0")]},
     TypeError("path_id field 12 is not a str")),
    ({"entries": [("signals/a.csv", "healthy", "1-2", None)]},
     TypeError("set_id field None is not a str")),
    ({"baseline_label": 7}, TypeError("baseline_label 7 is not a str")),
    ({"entries": [("/d/a.csv", "healthy", "1-2", "s0"), ("//d/a.csv", "notch", "1-2", "s0")]},
     "entry 1: //d/a.csv is listed again for path '1-2', set 's0' (first as entry 0)"),
])
def test_manifest_refuses_at_construction_what_would_not_read_back(change, message):
    """Each of these would save a manifest that ``load`` refuses, reads back
    unequal, reads with a record dropped or counted twice, or that ``save``
    cannot write; construction refuses it instead, naming the field, and so
    does assigning such entries, which leaves the manifest as it was.  A
    field that is not a ``str`` raises ``TypeError``, the rest
    ``ValueError``."""
    error = type(message) if isinstance(message, Exception) else ValueError
    message = str(message)
    fields = {"entries": [_ENTRY], "sample_rate": 1e6, "packet_windows": {"w": (0, 10)},
              **change}
    with pytest.raises(error, match=re.escape(message)):
        DatasetManifest(**fields)
    if "entries" in change:
        man = DatasetManifest(entries=[_ENTRY], sample_rate=1e6)
        with pytest.raises(error, match=re.escape(message)):
            man.entries = change["entries"]
        assert man.entries == (ManifestEntry(*_ENTRY),) and man.paths() == ["1-2"]


def test_manifest_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "manifest.csv"
    bad.write_text("sample_rate = 1000\nfile,label,path_id,set_id\nonly,three,fields\n")
    with pytest.raises(ValueError):
        DatasetManifest.load(bad)


@pytest.mark.parametrize("char", [" ", "\x0c"], ids=["u2028", "form-feed"])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_manifest_lines_end_at_lf_crlf_or_cr_only(tmp_path, char, ending):
    """A manifest line ends at LF, CRLF or CR, as a signal file's does: a
    form feed or U+2028 at the end of an entry does not start a line, so the
    bad line below is named as line 7."""
    lines = ["sample_rate = 1000", "window.all = 0,10", "# entries",
             "file,label,path_id,set_id", f"a.csv,healthy,1-2,s0{char}",
             "b.csv,healthy,1-2,s0", "bad line"]
    path = tmp_path / "m.csv"
    path.write_bytes(ending.join(lines).encode() + ending.encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}:7: expected 4 CSV fields, got 1")):
        DatasetManifest.load(path)
    path.write_bytes(ending.join(lines[:-1]).encode())
    assert [e.file for e in DatasetManifest.load(path).entries] == ["a.csv", "b.csv"]


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
    assert loaded.packets.shape == (n, 500) and loaded.psds.shape == (n, 1001)
    assert sorted(loaded.train + loaded.held + loaded.inspect) == list(range(n))
    assert len(loaded.held) == 5 and len(loaded.inspect) == 30
    assert all(loaded.entries[i].label != "healthy" for i in loaded.inspect)
    # the packet rows own their samples: the full-length records are not kept alive
    assert loaded.packets.base is None
    # one set, so pooling every set of the path (set_id=None) gives the same split
    pooled = load_set(ladder_dataset, "1-2", None, "first-packet", bench_welch,
                      holdout=5, seed=11)
    assert np.array_equal(loaded.ensemble.mean_psd, pooled.ensemble.mean_psd)
    assert all(np.array_equal(loaded.psds[i], pooled.psds[k])
               for i, k in zip(loaded.held, pooled.held))
    with pytest.raises(ValueError, match="holdout must be >= 0"):
        load_set(ladder_dataset, "1-2", "set0", "first-packet", bench_welch,
                 holdout=-1)


@pytest.mark.parametrize("band", [None, (150e3, 350e3), (252e3, 252e3)],
                         ids=["full", "manifest-band", "one-bin"])
def test_statistic_curves_hold_the_scalar_detectors_bits_in_band(ladder_dataset, bench_welch,
                                                                band):
    """Row ``i`` of a metric's ``statistic_curves`` array holds, bit for bit,
    the scalar detector's curve for inspected record ``i`` in the bins of
    ``band``, and its bounds are that detector's thresholds."""
    import warnings

    from gwdetect.detectors import f_statistic, fm_statistic, z_statistic

    man = ladder_dataset
    loaded = load_set(man, "1-2", "set0", "first-packet", bench_welch, holdout=5, seed=11)
    ens = loaded.ensemble
    psds = [welch_psd(extract_packet(man.load_entry(e), "first-packet", man), bench_welch)
            for e in loaded.entries]
    detectors = {"f": lambda psd: f_statistic(psds[loaded.train[0]], psd, 0.05, band),
                 "fm": lambda psd: fm_statistic(ens, psd, 0.05, band),
                 "z": lambda psd: z_statistic(ens, psd, 0.05, band)}
    freqs = ens.freq_grid
    rows = (np.ones(freqs.size, dtype=bool) if band is None
            else (freqs >= band[0]) & (freqs <= band[1]))
    curves = list(statistic_curves(loaded, ("janapati", "z", "f", "fm"), [0.05], band))
    assert [metric for metric, _, _ in curves] == ["z", "f", "fm"]
    for metric, bounds, values in curves:
        assert values.shape == (len(loaded.inspect), np.count_nonzero(rows))
        for row, j in zip(values, loaded.inspect):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                series = detectors[metric](psds[j])
            assert row.tobytes() == series.values[rows].tobytes()
        assert bounds == [(0.05, series.lower_threshold, series.upper_threshold)]


@pytest.fixture(scope="module")
def readme_datasets(tmp_path_factory):
    """The README dataset (``gwdetect simulate --seed 7``), and the same records
    dealt alternately into two sets."""
    readme = synth_dataset(tmp_path_factory.mktemp("readme"), n_baseline=20,
                           damage_specs=attenuation_ladder(6), n_per_damage=5, seed=7)
    two_sets = DatasetManifest(
        entries=[ManifestEntry(e.file, e.label, e.path_id, f"set{k % 2}")
                 for k, e in enumerate(readme.entries)],
        sample_rate=readme.sample_rate, baseline_label=readme.baseline_label,
        packet_windows=readme.packet_windows, band=readme.band, base_dir=readme.base_dir)
    return {"readme": readme, "two-sets": two_sets}


@pytest.mark.parametrize("dataset, set_id, holdout, seed, window", [
    ("readme", "set0", 0, None, "first-packet"),
    ("readme", "set0", 5, 7, "first-packet"),
    ("readme", None, 5, None, "full"),
    ("two-sets", "set1", 0, 3, "full"),
    ("two-sets", "set0", 2, 9, "first-packet"),
    ("two-sets", None, 2, None, "first-packet"),
    ("two-sets", None, 0, 11, "full"),
])
def test_load_set_rows_equal_the_per_record_path(readme_datasets, bench_welch,
                                                 dataset, set_id, holdout, seed, window):
    """Each packet and PSD row of ``load_set`` is, bit for bit, what one
    ``extract_packet`` and one ``welch_psd`` call give for its record, and its
    ensemble is ``BaselineEnsemble.from_psds`` over the training PSDs."""
    man = readme_datasets[dataset]
    loaded = load_set(man, "1-2", set_id, window, bench_welch, holdout, seed)
    entries = man.entries_for("1-2", set_id=set_id)
    packets = [extract_packet(man.load_entry(e), window, man) for e in entries]
    psds = [welch_psd(p, bench_welch) for p in packets]
    assert loaded.entries == tuple(entries)
    assert loaded.packets.shape == (len(entries), man.packet_windows[window][1])
    assert loaded.psds.shape == (len(entries), bench_welch.nfft // 2 + 1)
    for row, (packet, psd) in enumerate(zip(packets, psds)):
        assert loaded.packets[row].tobytes() == packet.samples.tobytes(), row
        assert loaded.psds[row].tobytes() == psd.values.tobytes(), row
    ens, want = loaded.ensemble, BaselineEnsemble.from_psds(psds[i] for i in loaded.train)
    assert ens.members.tobytes() == want.members.tobytes()
    assert ens.mean_psd.tobytes() == want.mean_psd.tobytes()
    assert ens.var_psd.tobytes() == want.var_psd.tobytes()
    assert (ens.freq_grid is want.freq_grid and ens.config == want.config
            and ens.k_windows == want.k_windows)


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
    assert len(rep.damage_labels) == 6
    # a false-alarm row, then a missed row per damage label, for each metric
    assert list(rep.counts) == [(metric, label) for metric in ("z", "f")
                                for label in (None, *rep.damage_labels)]
    assert rep.counts["z", None][1] == 5
    for label in rep.damage_labels:
        assert rep.counts["z", label][1] == 5
    assert rep.counts["f", None][1] == 15 * 5
    for label in rep.damage_labels:
        assert rep.counts["f", label][1] == 15 * 5
    # strong synthetic damage at 40 dB SNR: the deviation statistic misses nothing
    assert all(rep.pct("z", label) == 0.0 for label in rep.damage_labels)


def test_run_inspection_healthy_only(tmp_path, bench_welch):
    from gwdetect.simulate import synth_dataset

    man = synth_dataset(tmp_path, n_baseline=8, damage_specs=[], seed=4,
                        n_samples=3000)
    rep = run_inspection(compute_path_scores(man, "1-2", "first-packet", bench_welch,
                                             ["z"], holdout=3), 0.05)
    assert rep.damage_labels == ()
    assert list(rep.counts) == [("z", None)]  # no missed row
    assert rep.counts["z", None][1] == 3


def test_decisions_cover_exactly_the_scored_metrics(ladder_dataset, bench_welch):
    scores = compute_path_scores(ladder_dataset, "1-2", "first-packet", bench_welch,
                                 ["z", "qiu"], holdout=5)
    rep = run_inspection(scores, 0.05)
    assert rep.metrics == ("z", "qiu")
    assert list(scores.cases) == ["z", "qiu"]  # the metrics of the verdict rows, in order
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
    assert list(back.counts.items()) == list(rep.counts.items())  # in row order too
    # printed percentages are exactly count ratios, and what ``pct`` gives
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("metric,"):
            continue
        metric, kind, label, count, cases, pct = line.split(",")
        assert back.pct(metric, label or None) == (float(pct) if pct else None)
        if pct:
            assert float(pct) == pytest.approx(100.0 * int(count) / int(cases),
                                               rel=1e-12)


def test_report_reproducibility(ladder_dataset, bench_welch):
    a, b = (compute_path_scores(ladder_dataset, "1-2", "first-packet", bench_welch,
                                ["f", "z", "janapati"], holdout=5, seed=31)
            for _ in range(2))
    assert run_inspection(a, 0.05).to_csv() == run_inspection(b, 0.05).to_csv()
    # what the verdict rows are written from
    for metric, table in a.cases.items():
        other = b.cases[metric]
        assert (table.case_ids, table.labels) == (other.case_ids, other.labels)
        assert table.damaged(0.05).tolist() == other.damaged(0.05).tolist()


@pytest.mark.parametrize("split", [{"holdout": 5}, {"holdout": 0, "seed": 31, "band": None}])
def test_report_equals_its_csv_read_back(ladder_dataset, bench_welch, split):
    """A report holds exactly what its file holds: reading back the CSV of a
    report that ``run_inspection`` returns gives an equal report."""
    from gwdetect.pipeline import DetectionReport

    scores = compute_path_scores(ladder_dataset, "1-2", "first-packet", bench_welch,
                                 METRICS, **split)
    for alpha in (0.05, 1e-3):
        rep = run_inspection(scores, alpha)
        assert DetectionReport.from_csv(rep.to_csv()) == rep


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
    assert rep.counts["f", None][1] == 10 * 10
    assert rep.counts["f", "fake"][1] == 10 * 150
    assert rep.pct("f", "fake") == pytest.approx(100.0 * (1 - alpha), abs=5.0)
    assert rep.pct("f") == pytest.approx(100.0 * alpha, abs=8.0)


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
    # an empty sweep is the chance diagonal
    assert _trapezoid_auc([], []) == float(oracle([0.0, 1.0], [0.0, 1.0])) == 0.5


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
