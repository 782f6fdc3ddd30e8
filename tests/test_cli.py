import hashlib
import math
import re
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as oc
from gwdetect.cli import (OPTIONS, SIMULATE_OPTIONS, _curve_template, _load_config, _options,
                          _write_curve, build_parser, main)
from gwdetect.dataio import write_signal
from gwdetect.pipeline import DatasetManifest, DetectionReport, ManifestEntry
from gwdetect.simulate import synth_dataset
from gwdetect.spectral import Signal


def tree_digest(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def simulate_small(out, seed=5, **extra):
    args = ["simulate", "--out", str(out), "--seed", str(seed),
            "--n-baseline", "8", "--ladder-steps", "2", "--n-per-damage", "2",
            "--n-samples", "3000"]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return main(args)


def test_simulate_writes_dataset(tmp_path, capsys):
    assert simulate_small(tmp_path / "data") == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("manifest.csv")
    man = DatasetManifest.load(tmp_path / "data" / "manifest.csv")
    assert len(man.entries) == 8 + 2 * 2


def test_simulate_seed_reproducibility(tmp_path):
    simulate_small(tmp_path / "a")
    simulate_small(tmp_path / "b")
    simulate_small(tmp_path / "c", seed=6)
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def test_simulate_rejects_aliasing_center_freq(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "x"), "--center-freq", "13e6"])
    assert rc == 2
    assert "alias" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--n-per-damage"])
def test_simulate_rejects_negative_counts_before_writing(tmp_path, capsys, flag):
    out = tmp_path / "data"
    assert main(["simulate", "--out", str(out), flag, "-1"]) == 2
    err = capsys.readouterr().err
    assert f"{flag} '-1': expected a non-negative integer" in err
    assert "Traceback" not in err
    assert not out.exists()
    name = flag[2:].replace("-", "_")
    with pytest.raises(ValueError, match=re.escape(f"{name} -1: expected a non-negative integer")):
        synth_dataset(out, **{name: -1})
    assert not out.exists()


@pytest.mark.parametrize("flag, value, expected", [
    ("--noise-std", "-1", "a finite number >= 0"),
    ("--noise-std", "nan", "a finite number >= 0"),
    ("--noise-std", "abc", "a finite number >= 0"),
    ("--snr-db", "nan", "a finite number"),
    ("--snr-db", "inf", "a finite number"),
    # values the generator would refuse without naming a flag
    ("--arrival", "nan", "a finite number >= 0"),
    ("--amplitude", "inf", "a finite number > 0"),
    ("--path-gain", "nan", "a finite number"),
    ("--n-samples", "10", "an integer >= 1680, where the packet placed by --arrival ends"),
    # values the generator refused without naming a flag, and the text as typed
    ("--center-freq", "nan", "a number > 0 below half the --sample-rate, 1.2e+07 Hz, "
                             "above which it would alias"),
    ("--cycles", "0", "an integer >= 1"),
    ("--n-baseline", "1", "an integer >= 2"),
    ("--ladder-start", "2", "a number in (0, 1]"),
    ("--ladder-stop", "inf", "a number in (0, 1]"),
    ("--ladder-steps", "-1", "a non-negative integer"),
    ("--sample-rate", "nan", "a finite number > 0"),
    ("--path-gain", "0", "a finite number other than 0, as --snr-db sets the noise level"),
    ("--amplitude", "0", "a finite number > 0"),
    ("--arrival", "-.5", "a finite number >= 0"),
])
def test_simulate_rejects_bad_noise_levels_before_writing(tmp_path, capsys, flag,
                                                          value, expected):
    out = tmp_path / "data"
    assert main(["simulate", "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{flag} '{value}': expected {expected}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", [name for name, (_, _, read, _) in SIMULATE_OPTIONS.items()
                                  if read is not str])
def test_simulate_names_the_flag_of_a_text_that_is_not_a_number(tmp_path, capsys, name):
    flag = SIMULATE_OPTIONS[name][0]
    out = tmp_path / "data"
    assert main(["simulate", "--out", str(out), flag, "1x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} '1x': expected ")
    assert not out.exists()


def test_psd_output_grid(tmp_path, capsys):
    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    rc = main(["psd", "--manifest", str(tmp_path / "data/manifest.csv"),
               "--window", "first-packet", "--out", str(out)])
    assert rc == 0
    psd_files = sorted(out.glob("psd_*.csv"))
    assert len(psd_files) == 12
    lines = psd_files[0].read_text().splitlines()
    assert lines[0] == "freq,psd"
    assert len(lines) == 1 + 1001  # nfft//2 + 1 rows on the default 2000-point grid
    f0 = float(lines[1].split(",")[0])
    f1 = float(lines[2].split(",")[0])
    assert f1 - f0 == pytest.approx(12_000.0)
    assert (out / "band_theoretical_1-2_set0.csv").exists()
    assert (out / "band_experimental_1-2_set0.csv").exists()


def test_psd_zero_signal(tmp_path):
    sig_dir = tmp_path / "signals"
    sig_dir.mkdir()
    for i in range(2):
        write_signal(sig_dir / f"z{i}.csv", Signal(np.zeros(1200), 1e6, "healthy"))
    man = DatasetManifest(
        entries=[ManifestEntry(f"signals/z{i}.csv", "healthy", "p", "s") for i in range(2)],
        sample_rate=1e6,
        packet_windows={"w": (0, 1200)},
        base_dir=tmp_path,
    )
    man.save(tmp_path / "manifest.csv")
    out = tmp_path / "res"
    rc = main(["psd", "--manifest", str(tmp_path / "manifest.csv"), "--window", "w",
               "--segment-length", "100", "--nfft", "200", "--out", str(out)])
    assert rc == 0
    rows = (out / "psd_p_000_z0.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_detect_strong_damage_and_summary(tmp_path):
    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    rc = main(["detect", "--manifest", str(tmp_path / "data/manifest.csv"),
               "--window", "first-packet", "--metrics", "z", "--alpha", "0.05",
               "--holdout", "3", "--out", str(out)])
    assert rc == 0
    report = next(out.glob("report_*.csv")).read_text()
    missed_rows = [l for l in report.splitlines() if ",missed," in l]
    assert missed_rows
    for line in missed_rows:
        assert line.split(",")[3] == "0"  # 0 missed at 40 dB SNR
    assert (out / "summary.txt").exists()
    assert list(out.glob("stat_z_*.csv"))


def test_detect_empty_metrics_is_validation_error(tmp_path, capsys):
    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    rc = main(["detect", "--manifest", str(tmp_path / "data/manifest.csv"),
               "--window", "first-packet", "--metrics", "", "--out", str(out)])
    assert rc == 2
    assert "metrics" in capsys.readouterr().err
    assert not out.exists()  # nothing written on validation failure


def test_commands_idempotent_outputs(tmp_path):
    simulate_small(tmp_path / "data")
    manifest = str(tmp_path / "data/manifest.csv")
    for cmd, extra in (("detect", ["--metrics", "f,z", "--alpha", "0.05,0.01"]),
                       ("psd", []),
                       ("roc", ["--metrics", "z"])):
        args = [cmd, "--manifest", manifest, "--window", "first-packet",
                "--holdout", "3"] + extra
        main(args + ["--out", str(tmp_path / f"{cmd}1")])
        main(args + ["--out", str(tmp_path / f"{cmd}2")])
        assert tree_digest(tmp_path / f"{cmd}1") == tree_digest(tmp_path / f"{cmd}2")


def test_config_file_with_flag_override(tmp_path):
    simulate_small(tmp_path / "data")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[data]\n"
        f"manifest = {tmp_path / 'data/manifest.csv'}\n"
        "window = first-packet\n"
        "[welch]\n"
        "segment_length = 100\n"
        "nfft = 1000\n"
        "[detect]\n"
        "metrics = z\n"
        "alphas = 0.05\n"
        "holdout = 3\n"
        "[output]\n"
        f"out_dir = {tmp_path / 'cfgout'}\n"
    )
    assert main(["detect", "--config", str(cfg)]) == 0
    report = next((tmp_path / "cfgout").glob("report_*.csv")).read_text()
    assert "nfft=1000" in report
    # a flag beats the config value
    assert main(["detect", "--config", str(cfg), "--nfft", "2000",
                 "--out", str(tmp_path / "flagout")]) == 0
    report = next((tmp_path / "flagout").glob("report_*.csv")).read_text()
    assert "nfft=2000" in report
    assert main(["detect", "--config", str(tmp_path / "missing.cfg")]) == 2
    # the same file with CR line ends keeps every key
    cr = tmp_path / "run_cr.cfg"
    cr.write_bytes(cfg.read_bytes().replace(b"\n", b"\r"))
    assert main(["detect", "--config", str(cr), "--out", str(tmp_path / "crout")]) == 0
    assert tree_digest(tmp_path / "crout") == tree_digest(tmp_path / "cfgout")


def test_detect_does_not_mutate_inputs(tmp_path):
    simulate_small(tmp_path / "data")
    before = tree_digest(tmp_path / "data")
    main(["detect", "--manifest", str(tmp_path / "data/manifest.csv"),
          "--window", "first-packet", "--metrics", "z", "--holdout", "3",
          "--out", str(tmp_path / "res")])
    assert tree_digest(tmp_path / "data") == before


def test_roc_outputs(tmp_path, capsys):
    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    rc = main(["roc", "--manifest", str(tmp_path / "data/manifest.csv"),
               "--window", "first-packet", "--metrics", "z", "--holdout", "3",
               "--out", str(out)])
    assert rc == 0
    text = (out / "roc_1-2_first-packet_z.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "alpha,fpr,tpr"
    alphas = [float(l.split(",")[0]) for l in lines[1:] if not l.startswith("#")]
    assert alphas[0] == pytest.approx(1e-6)
    assert alphas[-1] == 1.0
    assert "# auc = 1.000000" in text  # separating synthetic damage
    assert "auc = 1.000000" in capsys.readouterr().out


def test_detect_healthy_only_false_alarm_rate(tmp_path):
    # 100 held-out healthy records, exact-null ratio test at a single bin:
    # the reported false-alarm percentage lands within 5 +/- 3
    rng = np.random.default_rng(17)
    sig_dir = tmp_path / "signals"
    sig_dir.mkdir()
    from gwdetect.pipeline import DatasetManifest as DM

    entries = []
    for i in range(115):
        name = f"signals/h{i:03d}.csv"
        write_signal(tmp_path / name, Signal(rng.normal(0.0, 1.0, 144), 1e4, "healthy"))
        entries.append(ManifestEntry(name, "healthy", "p", "s"))
    man = DM(entries=entries, sample_rate=1e4, packet_windows={"w": (0, 144)},
             base_dir=tmp_path)
    man.save(tmp_path / "manifest.csv")
    from gwdetect.spectral import WelchConfig

    f4 = WelchConfig(16, 0.0, 16).freq_grid(1e4)[4]
    out = tmp_path / "res"
    rc = main(["detect", "--manifest", str(tmp_path / "manifest.csv"),
               "--window", "w", "--segment-length", "16", "--overlap", "0",
               "--nfft", "16", "--window-kind", "rectangular", "--no-detrend",
               "--metrics", "f", "--alpha", "0.05", "--holdout", "100",
               "--band", f"{f4}:{f4}", "--out", str(out)])
    assert rc == 0
    report = next(out.glob("report_*.csv")).read_text()
    fa_row = [l for l in report.splitlines() if ",false_alarm," in l][0]
    _m, _k, _l, count, cases, pct = fa_row.split(",")
    assert int(cases) == 15 * 100
    assert float(pct) == pytest.approx(5.0, abs=3.0)


def test_report_command_renders_table(tmp_path, capsys):
    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    main(["detect", "--manifest", str(tmp_path / "data/manifest.csv"),
          "--window", "first-packet", "--metrics", "z,qiu", "--alpha", "0.05",
          "--holdout", "3", "--out", str(out)])
    reports = [str(p) for p in sorted(out.glob("report_*.csv"))]
    rc = main(["report"] + reports)
    assert rc == 0
    table = capsys.readouterr().out
    assert "alpha = 0.05" in table
    assert "false_alarm_%" in table


def test_report_names_both_files_whose_damage_labels_differ(tmp_path, capsys):
    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    assert main(["detect", *_common(tmp_path / "data", "--metrics", "z", "--holdout", "3"),
                 "--out", str(out)]) == 0
    first = out / "report_1-2_first-packet_a0.05.csv"
    renamed = tmp_path / "renamed.csv"
    renamed.write_text(first.read_text().replace("att-0.5", "att-0.6"))
    capsys.readouterr()
    assert main(["report", str(first), str(renamed)]) == 2
    err = capsys.readouterr().err
    assert (f"error: inconsistent damage labels across reports: {first} ('att-0.9', "
            f"'att-0.5') vs {renamed} ('att-0.9', 'att-0.6')\n") in err, err


def test_outdir_env_override(tmp_path, monkeypatch, capsys):
    simulate_small(tmp_path / "data")
    monkeypatch.setenv("GWDETECT_OUTDIR", str(tmp_path / "envout"))
    rc = main(["psd", "--manifest", str(tmp_path / "data/manifest.csv"),
               "--window", "first-packet"])
    assert rc == 0
    assert (tmp_path / "envout").is_dir()


@pytest.mark.parametrize("flag, env, config, where", [
    (None, "envout", None, "envout"),
    (None, None, "cfgout", "cfgout"),
    ("flagout", "envout", "cfgout", "flagout"),
    (None, "envout", "cfgout", "envout"),
    (None, None, None, None),
], ids=["env", "config", "flag-wins", "env-beats-config", "neither"])
def test_simulate_output_directory_resolution(tmp_path, monkeypatch, capsys,
                                              flag, env, config, where):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GWDETECT_OUTDIR", raising=False)
    args = ["simulate", "--n-baseline", "3", "--ladder-steps", "1",
            "--n-per-damage", "1", "--n-samples", "3000"]
    if flag:
        args += ["--out", flag]
    if env:
        monkeypatch.setenv("GWDETECT_OUTDIR", env)
    if config:
        (tmp_path / "sim.cfg").write_text(f"[output]\nout_dir = {config}\n")
        args += ["--config", "sim.cfg"]
    rc = main(args)
    if where is None:
        assert rc == 2
        assert "an output directory is required" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == []
        return
    assert rc == 0
    written = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
    assert written == [where]
    assert len(DatasetManifest.load(tmp_path / where / "manifest.csv").entries) == 4


def test_missing_manifest_is_validation_error(tmp_path, capsys):
    rc = main(["detect", "--window", "w", "--out", str(tmp_path / "res")])
    assert rc == 2
    rc = main(["detect", "--manifest", str(tmp_path / "nope.csv"), "--window", "w",
               "--out", str(tmp_path / "res")])
    assert rc == 4  # unreadable manifest is an I/O failure


def _common(data, *extra):
    return ["--manifest", str(data / "manifest.csv"), "--window", "first-packet",
            *extra]


def test_negative_holdout_rejected_before_any_write(tmp_path, capsys):
    simulate_small(tmp_path / "data")
    for cmd, extra in (("detect", ["--metrics", "f,fm,z,janapati,qiu"]),
                       ("roc", ["--metrics", "f"]),
                       ("roc", ["--metrics", "z"]),
                       ("psd", [])):
        out = tmp_path / f"res_{cmd}"
        rc = main([cmd, *_common(tmp_path / "data", *extra), "--holdout", "-3",
                   "--out", str(out)])
        assert rc == 2, cmd
        assert "--holdout '-3': expected a non-negative integer" in capsys.readouterr().err
        assert not out.exists(), cmd


def _two_set_dataset(root):
    """The small dataset with its records dealt alternately into set0/set1."""
    simulate_small(root)
    man = DatasetManifest.load(root / "manifest.csv")
    man.entries = [ManifestEntry(e.file, e.label, e.path_id, f"set{k % 2}")
                   for k, e in enumerate(man.entries)]
    man.save(root / "manifest.csv")
    return man


def test_unknown_path_or_set_id_is_validation_error(tmp_path, capsys):
    _two_set_dataset(tmp_path / "data")
    for cmd in ("psd", "detect", "roc"):
        for flag, value, listed in (("--path", "nope", "'1-2'"),
                                    ("--set-id", "set9", "'set0', 'set1'")):
            out = tmp_path / "res"
            rc = main([cmd, *_common(tmp_path / "data"), flag, value,
                       "--out", str(out)])
            assert rc == 2, (cmd, flag)
            err = capsys.readouterr().err
            assert repr(value) in err and listed in err, err
            assert not out.exists()


def test_psd_set_id_restricts_curves_and_bands(tmp_path):
    man = _two_set_dataset(tmp_path / "data")
    full, only = tmp_path / "full", tmp_path / "only"
    assert main(["psd", *_common(tmp_path / "data"), "--out", str(full)]) == 0
    assert main(["psd", *_common(tmp_path / "data"), "--set-id", "set1",
                 "--out", str(only)]) == 0
    want = {f"psd_1-2_{i:03d}_{Path(e.file).stem}.csv"
            for i, e in enumerate(man.entries_for("1-2")) if e.set_id == "set1"}
    want |= {"band_theoretical_1-2_set1.csv", "band_experimental_1-2_set1.csv"}
    got = tree_digest(only)
    assert set(got) == want
    # the restricted run writes the same bytes as the full run for its files
    assert all(tree_digest(full)[name] == digest for name, digest in got.items())
    assert len(tree_digest(full)) == len(man.entries) + 4


def _scalar_curves_and_thresholds(tmp_path, *band_flag):
    """``detect``'s ``stat_*`` files and ``thresholds_1-2.csv`` on the two-set
    dataset (``--band`` as ``band_flag`` gives it), with the files the scalar
    detectors give for the same records: each file holds the detector's curve
    for its record as ``freq,value``, in the bins of the verdict band, and
    each thresholds row that detector's thresholds at its alpha.  ``f`` is
    taken against the first training baseline, which the seed makes another
    record than the set's first."""
    import warnings

    from gwdetect.dataio import fmt
    from gwdetect.detectors import f_statistic, fm_statistic, z_statistic
    from gwdetect.pipeline import extract_packet, load_set
    from gwdetect.spectral import WelchConfig, welch_psd

    man = _two_set_dataset(tmp_path / "data")
    out = tmp_path / "res"
    alphas = (0.01, 0.05)
    assert main(["detect", *_common(tmp_path / "data"), "--metrics", "f,fm,z",
                 "--alpha", "0.01,0.05", "--holdout", "1", "--seed", "2", *band_flag,
                 "--out", str(out)]) == 0
    band = None if band_flag else man.band
    want, thresholds = {}, ["set,metric,alpha,lower,upper"]
    welch = WelchConfig(100, 0.5, 2000)
    for set_id in ("set0", "set1"):
        loaded = load_set(man, "1-2", set_id, "first-packet", welch, holdout=1, seed=2)
        ens = loaded.ensemble
        psds = [welch_psd(extract_packet(man.load_entry(e), "first-packet", man), welch)
                for e in loaded.entries]
        assert loaded.entries[loaded.train[0]] != man.entries_for(
            "1-2", set_id, man.baseline_label)[0]
        first = psds[loaded.train[0]]  # the first training baseline
        for metric, detector in (("f", lambda psd, a: f_statistic(first, psd, a, band)),
                                 ("fm", lambda psd, a: fm_statistic(ens, psd, a, band)),
                                 ("z", lambda psd, a: z_statistic(ens, psd, a, band))):
            for i, j in enumerate(loaded.inspect):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    series = [detector(psds[j], alpha) for alpha in alphas]
                assert all(np.array_equal(s.values, series[0].values) for s in series)
                freqs = series[0].freqs
                rows = (np.ones(freqs.size, dtype=bool) if band is None
                        else (freqs >= band[0]) & (freqs <= band[1]))
                lines = ["freq,value"]
                lines += [f"{fmt(f)},{v:.12g}" for f, v in
                          zip(freqs[rows].tolist(), series[0].values[rows].tolist())]
                stem = Path(loaded.entries[j].file).stem
                want[f"stat_{metric}_1-2_{set_id}_{i:03d}_{stem}.csv"] = "\n".join(lines) + "\n"
            # a metric's critical points are the same for every record of a set
            thresholds += [f"{set_id},{metric},{fmt(alpha)},"
                           f"{s.lower_threshold:.12g},{s.upper_threshold:.12g}"
                           for alpha, s in zip(alphas, series)]
    n_damage = sum(e.label != man.baseline_label for e in man.entries)
    assert len(want) == 3 * n_damage
    got = {p.name: p.read_text() for p in out.glob("stat_*.csv")}
    return got, want, (out / "thresholds_1-2.csv").read_text(), "\n".join(thresholds) + "\n"


def test_detect_curves_equal_the_scalar_detectors(tmp_path):
    """By default the curves hold the manifest band's bins: 17 of the grid's
    1001 here."""
    got, want, thresholds, want_thresholds = _scalar_curves_and_thresholds(tmp_path)
    assert got == want
    assert thresholds == want_thresholds
    assert {text.count("\n") for text in got.values()} == {1 + 17}


def test_detect_curves_over_the_full_band_equal_the_scalar_detectors(tmp_path):
    """``--band full`` writes the scalar detectors' curves over the whole grid."""
    got, want, thresholds, want_thresholds = _scalar_curves_and_thresholds(
        tmp_path, "--band", "full")
    assert got == want
    assert thresholds == want_thresholds
    assert {text.count("\n") for text in got.values()} == {1 + 1001}


@pytest.mark.parametrize("band", [None, "200000:300000"], ids=["manifest-band", "given-band"])
def test_detect_curves_are_the_in_band_rows_of_the_full_grid_curves(tmp_path, band):
    """Each ``stat_*`` file of a run over a band is the header and the rows of
    that band of the same file from a ``--band full`` run.  The thresholds
    are the same bytes; only the decisions (reports, verdicts, summary) may
    differ otherwise."""
    data = tmp_path / "data"
    simulate_small(data)
    lo, hi = (150e3, 350e3) if band is None else (200e3, 300e3)
    args = [*_common(data), "--metrics", "f,fm,z,qiu", "--holdout", "3"]
    assert main(["detect", *args, *(["--band", band] if band else []),
                 "--out", str(tmp_path / "band")]) == 0
    assert main(["detect", *args, "--band", "full", "--out", str(tmp_path / "full")]) == 0
    in_band = {p.name: p.read_text() for p in (tmp_path / "band").iterdir()}
    full = {p.name: p.read_text() for p in (tmp_path / "full").iterdir()}
    assert set(in_band) == set(full)
    curves = [name for name in full if name.startswith("stat_")]
    assert len(curves) == 3 * 4
    for name in curves:
        header, *rows = full[name].splitlines(keepends=True)
        assert in_band[name] == header + "".join(
            row for row in rows if lo <= float(row.split(",")[0]) <= hi)
    assert {name for name in full if full[name] != in_band[name]} - set(curves) <= \
        {name for name in full if name.startswith(("report_", "verdicts_", "summary"))}
    assert in_band["thresholds_1-2.csv"] == full["thresholds_1-2.csv"]


def test_detect_writes_each_statistic_curve_once_whatever_the_alphas(tmp_path):
    """``--alpha 0.05`` and ``--alpha 0.01,0.05`` write byte-identical
    ``stat_*`` files; besides the added alpha's report and verdicts, only
    the thresholds and the summary differ."""
    simulate_small(tmp_path / "data")
    trees = {}
    for alphas in ("0.05", "0.01,0.05"):
        out = tmp_path / alphas
        assert main(["detect", *_common(tmp_path / "data", "--metrics", "f,fm,z,qiu",
                                        "--alpha", alphas, "--holdout", "3"),
                     "--out", str(out)]) == 0
        trees[alphas] = tree_digest(out)
    one, two = trees["0.05"], trees["0.01,0.05"]
    curves = {name for name in one if name.startswith("stat_")}
    assert len(curves) == 3 * 4
    assert {name for name in two if name.startswith("stat_")} == curves
    assert {name: one[name] for name in curves} == {name: two[name] for name in curves}
    added = {"report_1-2_first-packet_a0.01.csv", "verdicts_1-2_first-packet_a0.01.csv"}
    assert set(two) == set(one) | added
    assert {name for name in one if one[name] != two[name]} == \
        {"thresholds_1-2.csv", "summary.txt"}
    rows = [line.split(",") for line in
            (tmp_path / "0.01,0.05" / "thresholds_1-2.csv").read_text().splitlines()]
    assert [r[:3] for r in rows] == [["set", "metric", "alpha"]] + [
        ["set0", m, a] for m in ("f", "fm", "z") for a in ("0.01", "0.05")]
    assert (tmp_path / "0.05" / "thresholds_1-2.csv").read_text().splitlines() == \
        [",".join(r) for r in rows if r[2] != "0.01"]


def test_detect_with_only_damage_indices_writes_no_curve_or_thresholds(tmp_path):
    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    assert main(["detect", *_common(tmp_path / "data", "--metrics", "janapati,qiu",
                                    "--alpha", "0.01,0.05", "--holdout", "3"),
                 "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"summary.txt"} | {
        f"{kind}_1-2_first-packet_a{a}.csv" for kind in ("report", "verdicts")
        for a in ("0.01", "0.05")}


def test_config_detrend_takes_boolean_words(tmp_path):
    """``[welch] detrend`` reads configparser's boolean words: the false ones
    write what ``--no-detrend`` writes, the true ones what the default does."""
    simulate_small(tmp_path / "data")
    base = ["psd", *_common(tmp_path / "data")]
    main(base + ["--out", str(tmp_path / "default")])
    main(base + ["--no-detrend", "--out", str(tmp_path / "flag")])
    on, off = tree_digest(tmp_path / "default"), tree_digest(tmp_path / "flag")
    assert on != off
    for word, want in (("false", off), ("No", off), ("off", off), ("0", off),
                       ("true", on), ("yes", on), ("ON", on), ("1", on)):
        cfg = tmp_path / f"{word}.cfg"
        cfg.write_text(f"[welch]\ndetrend = {word}\n")
        assert main(base + ["--config", str(cfg), "--out", str(tmp_path / word)]) == 0
        assert tree_digest(tmp_path / word) == want, word


def _set_line(text, number, new):
    lines = text.splitlines()
    lines[number - 1] = new
    return "\n".join(lines) + "\n"


_PCT77 = "line 9: 'z,false_alarm,,0,3,77', where to_csv writes 'z,false_alarm,,0,3,0.0'"


@pytest.mark.parametrize("target, number, new", [
    ("signal", 7, "nan"),
    ("signal", 5, "abc"),
    ("signal", 1, "sample_rate,abc"),
    ("signal", 1, "sample_rate,inf"),
    ("manifest", 5, "window.full = 1200"),
    ("manifest", 1, "sample_rate = fast"),
    ("manifest", 1, "sample_rate = nan"),
    pytest.param("manifest", 3, "band = 350000.0,150000.0", id="manifest-band-inverted"),
    pytest.param("manifest", 3, "band = 2e7,3e7", id="manifest-band-off-grid"),
    # rows 7-14 list baseline_000 ... baseline_007, rows 17-18 att-0.5_000 and _001
    pytest.param("manifest", 17, "signals/att-0.5_000.csv,,1-2,set0", id="manifest-empty-label"),
    pytest.param("manifest", 7, ",healthy,1-2,set0", id="manifest-empty-file"),
    pytest.param("manifest", 5, "window.first-packet = 0,3000", id="manifest-second-window"),
    pytest.param("manifest", 2, "sample_rate = 1e6", id="manifest-second-sample_rate"),
    pytest.param("manifest", 8, "signals/baseline_000.csv,healthy,1-2,set0",
                 id="manifest-file-listed-twice"),
    pytest.param("manifest", 8, "signals/./baseline_000.csv,healthy,1-2,set0",
                 id="manifest-file-listed-twice-with-./"),
    pytest.param("manifest", 8, "signals//baseline_000.csv,healthy,1-2,set0",
                 id="manifest-file-listed-twice-with-//"),
    # ';' separates the sets of a report's '# m_train' header
    pytest.param("manifest", 8, "signals/baseline_001.csv,healthy,1-2,a;b",
                 id="manifest-set-id-with-;"),
    pytest.param("option", "--alpha", "abc", id="option-alpha-abc"),
    pytest.param("option", "--alpha", "0", id="option-alpha-0"),
    pytest.param("option", "--band", "a:b", id="option-band-a:b"),
    pytest.param("option", "--band", "300000:100000", id="option-band-300000:100000"),
    pytest.param("option", "--band", "1e9:2e9", id="option-band-1e9:2e9"),
    pytest.param("option", "--seed", "-1", id="option-seed--1"),
    pytest.param("option", "--holdout", "-1", id="option-holdout--1"),
    pytest.param("option", "--window-kind", "triangle", id="option-window-kind-triangle"),
    pytest.param("option", "--nfft", "50", id="option-nfft-50"),
    pytest.param("option", "--overlap", "1.5", id="option-overlap-1.5"),
    pytest.param("option", "--alpha-grid", "1e-3:1", id="option-alpha-grid-1e-3:1"),
    pytest.param("option", "--metrics", "z,z", id="option-metrics-z,z"),
    pytest.param("option", "--alpha", "0.05,0.05", id="option-alpha-0.05,0.05"),
    # 1 - alpha/2 rounds to 1: no critical point exists in double precision
    pytest.param("option", "--alpha", "1e-20", id="option-alpha-1e-20"),
    pytest.param("option", "--alpha", "0.05,1.1102230246251565e-16",
                 id="option-alpha-0.05,2**-53"),
    pytest.param("config", "welch.nfft", "abc", id="config-nfft-abc"),
    pytest.param("config", "welch.overlap", "half", id="config-overlap-half"),
    pytest.param("config", "welch.detrend", "maybe", id="config-detrend-maybe"),
    pytest.param("config", "welch.window_kind", "triangle", id="config-window_kind-triangle"),
    pytest.param("config", "detect.seed", "x1", id="config-seed-x1"),
    pytest.param("config", "detect.seed", "-1", id="config-seed--1"),
    pytest.param("config", "detect.holdout", "-2", id="config-holdout--2"),
    pytest.param("config", "detect.alphas", "abc", id="config-alphas-abc"),
    pytest.param("config", "detect.alphas", "1e-150", id="config-alphas-1e-150"),
    pytest.param("report", "welch", "metric,kind", id="report-metric,kind"),
    pytest.param("report", "m_train", "\n".join([
        "# path = 1-2", "# window = first-packet", "# alpha = 0.05",
        "# welch = L=100,overlap=0.5,nfft=2000,window=hamming,detrend=1",
        "# holdout = 3", "# m_train = set0", "metric,kind,label,count,cases,pct"]),
        id="report-bad-m_train"),
    # a row of a report that ``detect`` wrote (rows on lines 9-14: z, then qiu,
    # each a false_alarm row and a missed row for att-0.9 and att-0.5), edited
    pytest.param("report", "metric 'z' has no missed row for label 'att-0.9'",
                 ("z,missed,att-0.9,", []), id="report-missing-missed-row"),
    pytest.param("report", "metric 'qiu' has no false_alarm row",
                 ("qiu,false_alarm,", []), id="report-missing-false_alarm-row"),
    pytest.param("report", "line 10: a second false_alarm row for metric 'z'",
                 ("z,false_alarm,", ["z,false_alarm,,0,3,0.0", "z,false_alarm,,3,3,100.0"]),
                 id="report-repeated-row"),
    pytest.param("report", "line 10: 'z,mised,att-0.9,0,2,0', where to_csv writes "
                 "'z,missed,att-0.9,0,2,0.0'",
                 ("z,missed,att-0.9,", ["z,mised,att-0.9,0,2,0"]), id="report-unknown-kind"),
    pytest.param("report", "line 12: 'qiu,false_alarm,att-0.9,0,30,0', where to_csv writes "
                 "'qiu,false_alarm,,0,30,0.0'",
                 ("qiu,false_alarm,", ["qiu,false_alarm,att-0.9,0,30,0"]),
                 id="report-false_alarm-row-with-a-label"),
    pytest.param("report", "line 11: label '' is empty or holds ','",
                 ("z,missed,att-0.5,", ["z,missed,,0,2,0"]),
                 id="report-missed-row-without-a-label"),
    pytest.param("report", "line 9: count -1 is not between 0 and its 3 cases",
                 ("z,false_alarm,", ["z,false_alarm,,-1,3,-33.3333333333"]),
                 id="report-negative-count"),
    pytest.param("report", "line 14: count 99 is not between 0 and its 75 cases",
                 ("qiu,missed,att-0.5,", ["qiu,missed,att-0.5,99,75,132"]),
                 id="report-count-above-its-cases"),
    pytest.param("report", _PCT77, ("z,false_alarm,", ["z,false_alarm,,0,3,77"]),
                 id="report-pct-off-its-count"),
    # a form feed or U+2028 at the end of line 2 is whitespace, not a line end
    pytest.param("report", _PCT77, ("z,false_alarm,", ["z,false_alarm,,0,3,77"], "\x0c"),
                 id="report-pct-off-its-count-after-a-form-feed"),
    pytest.param("report", _PCT77, ("z,false_alarm,", ["z,false_alarm,,0,3,77"], "\u2028"),
                 id="report-pct-off-its-count-after-u2028"),
    pytest.param("report", "line 4: a second '# alpha' header",
                 ("# alpha = ", ["# alpha = 0.05", "# alpha = 0.5"]), id="report-second-header"),
    pytest.param("report", "line 3: bad '# alpha' header '7'",
                 ("# alpha = ", ["# alpha = 7"]), id="report-alpha-above-1"),
    # header values that to_csv never writes
    pytest.param("report", "line 4: bad '# band' header ''",
                 ("# band = ", ["# band ="]), id="report-empty-band"),
    pytest.param("report", "line 4: bad '# band' header 'nan:nan'",
                 ("# band = ", ["# band = nan:nan"]), id="report-band-nan"),
    pytest.param("report", "line 4: bad '# band' header '3e5:1e5'",
                 ("# band = ", ["# band = 3e5:1e5"]), id="report-band-inverted"),
    pytest.param("report", "line 6: bad '# holdout' header '-3'",
                 ("# holdout = ", ["# holdout = -3"]), id="report-negative-holdout"),
    pytest.param("report", "line 7: bad '# m_train' header 'set0:-1'",
                 ("# m_train = ", ["# m_train = set0:-1"]), id="report-m_train-below-1"),
    pytest.param("report", "line 7: '# m_train = set0:2;set0:5', where to_csv writes "
                 "'# m_train = set0:5'",
                 ("# m_train = ", ["# m_train = set0:2;set0:5"]),
                 id="report-m_train-set-listed-twice"),
    # texts whose values read, but which to_csv does not write back
    pytest.param("report", "line 6: '# holdout = 0_5', where to_csv writes '# holdout = 5'",
                 ("# holdout = ", ["# holdout = 0_5"]), id="report-holdout-0_5"),
    pytest.param("report", "line 7: '# m_train = ;set0:15;;', where to_csv writes "
                 "'# m_train = set0:15'",
                 ("# m_train = ", ["# m_train = ;set0:15;;"]), id="report-m_train-empty-items"),
    pytest.param("report", "line 8: expected a '# key = value' header or a "
                 "metric,kind,label,count,cases,pct row",
                 ("metric,kind,", ["metric,junk"]), id="report-column-line-metric,junk"),
    pytest.param("report", "line 15: '# foo = bar', where to_csv writes no line",
                 (None, ["# foo = bar"]), id="report-unknown-header-appended"),
    pytest.param("report", "not a detect report: missing '# band' header",
                 ("# band = ", []), id="report-missing-band"),
])
def test_malformed_input_names_file_and_line(tmp_path, capsys, monkeypatch,
                                             target, number, new):
    """Exit 2, no traceback, no output, and a message that says where: the
    file and line, the report file and the header it lacks or garbles (or
    the line, or the metric and label, of a row it refuses), the option and
    its value, or the config file, entry and value.  Options and
    config values are checked before any record is read, by every command
    that takes them (``detect``, ``roc`` and ``psd``; ``--alpha-grid`` is
    ``roc``'s alone), and so is the manifest's band, by the commands that
    score in it (``detect`` and ``roc``)."""
    import gwdetect.pipeline as pipeline

    data = tmp_path / "data"
    simulate_small(data)
    capsys.readouterr()
    reads = []
    real = pipeline.read_signal
    monkeypatch.setattr(pipeline, "read_signal", lambda p: reads.append(p) or real(p))
    cmds = ["detect"]
    if target == "option":
        cmds = ["roc"] if number == "--alpha-grid" else ["detect", "roc", "psd"]
        argv = [*_common(data), "--metrics", "z", "--holdout", "3", number, new]
        where = [f"{number} {new!r}"]
    elif target == "config":
        cmds = ["detect", "roc", "psd"]
        cfg = tmp_path / "run.cfg"
        section, key = number.split(".")
        cfg.write_text(f"[{section}]\n{key} = {new}\n")
        argv = ["--config", str(cfg), *_common(data), "--metrics", "z",
                *([] if key == "holdout" else ["--holdout", "3"])]  # a flag beats the config
        where = [f"{cfg}: [{section}] {key} {new!r}"]
    elif target == "report":
        cmds = ["report"]
        victim = tmp_path / "not_a_report.csv"
        if isinstance(new, tuple):  # replace the row that starts with new[0] (None: append)
            assert main(["detect", *_common(data), "--metrics", "z,qiu", "--holdout", "3",
                         "--out", str(tmp_path / "det")]) == 0
            lines = (tmp_path / "det" / "report_1-2_first-packet_a0.05.csv").read_text() \
                .splitlines()
            k = len(lines) if new[0] is None else next(
                k for k, line in enumerate(lines) if line.startswith(new[0]))
            lines[k:k + 1] = new[1]
            lines[1] += new[2] if len(new) > 2 else ""  # ends line 2
            victim.write_text("\n".join(lines) + "\n")
            where = [f"{victim}: {number}"]
        else:
            victim.write_text(new + "\n")
            where = [f"{victim}: ", f"'# {number}'"]
        argv = [str(victim)]
    else:
        man = DatasetManifest.load(data / "manifest.csv")
        victim = (man.resolve(man.entries[1]) if target == "signal"
                  else data / "manifest.csv")
        victim.write_text(_set_line(victim.read_text(), number, new))
        argv = [*_common(data), "--metrics", "z", "--holdout", "3"]
        where = [f"{victim}:{number}:"]
        if "baseline_000.csv" in new:  # the file of line 7 again
            where.append("(first on line 7)")
        if new.startswith("band"):  # checked against the Welch grid, with the options
            cmds = ["detect", "roc"]
            where = [f"{victim}: band '"]
    for cmd in cmds:
        out = tmp_path / f"res_{cmd}"
        reads.clear()
        rc = main([cmd, *argv, "--out", str(out)])
        assert rc == 2, cmd
        err = capsys.readouterr().err
        assert all(w in err for w in where), (cmd, err)
        assert "Traceback" not in err
        assert not out.exists(), cmd
        if target != "signal":
            assert reads == [], cmd


# A text each row's own check refuses and one it takes.  The other rows' texts
# are checked against the manifest (ids, by messages that name the id and
# not the flag) or not at all (the output directory).
_OPTION_TEXTS = {
    "welch.segment_length": ("abc", "100"),
    "welch.overlap": ("half", "0.5"),
    "welch.nfft": ("x", "2000"),
    "welch.window_kind": ("triangle", "Bartlett"),
    "welch.detrend": ("maybe", "off"),
    "detect.metrics": ("z,q", "z"),
    "detect.alphas": ("abc", "0.01,0.05"),
    "detect.band": ("a:b", "full"),  # read against the Welch grid
    "detect.holdout": ("-1", "3"),
    "detect.seed": ("x1", "1"),
}


class _RecordRead(Exception):
    pass


def _read_nothing(path):
    raise _RecordRead(path)


@pytest.mark.parametrize("key", list(OPTIONS))
def test_each_option_row_names_where_its_text_came_from_and_its_flag_wins(
        tmp_path, capsys, monkeypatch, key):
    """For each row of ``cli.OPTIONS``: its flag beats its config value, and
    a text its check refuses exits 2 before any record is read, naming the
    flag it was given by, or the config file and ``[section] key``, with the
    row's expected text; given a text it takes by flag, a refused config
    value is never read."""
    import gwdetect.pipeline as pipeline

    flag, _, parse, expected, _ = OPTIONS[key]
    section, name = key.split(".")
    switch = flag.startswith("--no-")  # it carries no text: it gives its key "false"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{section}]\n{name} = from-config\n")
    for argv, source in (([], ("from-config", f"{cfg}: [{section}] {name}")),
                         ([flag] if switch else [flag, "from-flag"],
                          ("false" if switch else "from-flag", flag))):
        args = build_parser().parse_args(["detect", "--config", str(cfg), *argv])
        assert _options(args, _load_config(cfg))[0][key] == source
    assert (key in _OPTION_TEXTS) == (parse is not None or key == "detect.band")
    if key not in _OPTION_TEXTS:
        return

    data = tmp_path / "data"
    simulate_small(data)
    capsys.readouterr()
    monkeypatch.setattr(pipeline, "read_signal", _read_nothing)
    refused, taken = _OPTION_TEXTS[key]
    cfg.write_text(f"[{section}]\n{name} = {refused}\n")
    out = tmp_path / "out"
    sources = [(["--config", str(cfg)], f"{cfg}: [{section}] {name}")]
    if not switch:
        sources.append(([flag, refused], flag))
    for cmd in ("detect", "roc", "psd"):
        for argv, where in sources:
            assert main([cmd, *_common(data), *argv, "--out", str(out)]) == 2, (cmd, where)
            err = capsys.readouterr().err
            prefix = f"error: {where} {refused!r}: expected "
            assert err.startswith(prefix), (cmd, err)
            assert parse is None or err == f"{prefix}{expected}\n", (cmd, err)
            assert not out.exists()
        # a flag the row takes: the config's refused text is not read
        with pytest.raises(_RecordRead):
            main([cmd, *_common(data), "--config", str(cfg), flag, *([] if switch else [taken]),
                  "--out", str(out)])


def test_alpha_floor_is_where_the_two_sided_level_rounds_to_one():
    """``--alpha`` takes every level whose ``1 - alpha/2`` is below 1 in
    double precision, and refuses 2**-53, where it rounds to 1."""
    from gwdetect.cli import _parse_alpha

    above = math.nextafter(2.0 ** -53, 1.0)
    assert 1.0 - above / 2.0 < 1.0 and _parse_alpha(repr(above)) == above
    for alpha in (2.0 ** -53, 1e-20, 5e-324):
        with pytest.raises(ValueError):
            _parse_alpha(repr(alpha))


@pytest.mark.parametrize("target, number, store, ending", [
    pytest.param("signal", 7, True, b"\n", id="signal-sample"),
    pytest.param("signal", 7, True, b"\r", id="signal-sample-cr"),
    pytest.param("signal", 7, True, b"\r\n", id="signal-sample-crlf"),
    # past the first block that decoding the header reads
    pytest.param("signal", 2900, False, b"\n", id="signal-late-sample-no-store"),
    pytest.param("signal", 2900, False, b"\r", id="signal-late-sample-no-store-cr"),
    pytest.param("signal", 2900, False, b"\r\n", id="signal-late-sample-no-store-crlf"),
    pytest.param("signal", 2, True, b"\n", id="signal-label"),
    pytest.param("manifest", 2, True, b"\n", id="manifest-header"),
    pytest.param("manifest", 2, True, b"\r", id="manifest-header-cr"),
    pytest.param("manifest", 9, True, b"\r", id="manifest-entry-cr"),
    pytest.param("config", 2, True, b"\n", id="config-value"),
    pytest.param("report", 11, True, b"\n", id="report-last-row"),
])
def test_bytes_that_are_not_utf8_are_named_by_file_and_line(tmp_path, capsys,
                                                            target, number, store, ending):
    """A byte that does not decode as UTF-8 exits 2, writes nothing, and
    names the file and the line of the byte, lines ending at LF, CR or CRLF
    (``ending``)."""
    data = tmp_path / "data"
    simulate_small(data)
    capsys.readouterr()
    man = DatasetManifest.load(data / "manifest.csv")
    argv = [*_common(data), "--metrics", "z"]
    cmd = ["detect", *argv]
    if target == "config":
        victim = tmp_path / "run.cfg"
        victim.write_text("[detect]\nholdout = 3\n")
        cmd += ["--config", str(victim)]
    elif target == "report":  # rows on lines 9-11
        assert main(["detect", *argv, "--holdout", "3", "--out", str(tmp_path / "det")]) == 0
        capsys.readouterr()
        victim = tmp_path / "det" / "report_1-2_first-packet_a0.05.csv"
        cmd = ["report", str(victim)]
    else:
        victim = man.resolve(man.entries[1]) if target == "signal" else data / "manifest.csv"
        cmd += ["--holdout", "3"]
    if not store:
        shutil.rmtree(victim.parent / "__gwcache__")
    lines = victim.read_bytes().split(b"\n")
    lines[number - 1] += b"\xff"
    victim.write_bytes(ending.join(lines))
    out = tmp_path / "res"
    assert main([*cmd, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{victim}:{number}: byte 0xff is not UTF-8 text" in err, err
    assert "Traceback" not in err
    assert not out.exists()


_UNPARSABLE_CONFIGS = [
    ("holdout = 3\n", ":1: 'holdout = 3' comes before any [section] header",
     "no-section-header"),
    ("[detect]\nholdout = 3\nholdout = 4\n", ":3: key 'holdout' is given twice in [detect]",
     "key-twice"),
    ("[detect]\nholdout = 3\n[detect]\nseed = 1\n", ":3: section [detect] is given twice",
     "section-twice"),
    ("[detect]\nholdout = 3\n\n[x\n",
     ":4: '[x' is neither a [section] header nor a 'key = value' line", "neither-header-nor-key"),
    ("[output]\nout_dir = 50%\n", ": [output] out_dir: '%' must be followed by",
     "value-that-cannot-be-interpolated"),
]


@pytest.mark.parametrize("text, where, ending", [
    pytest.param(text, where, ending, id=name + suffix)
    for text, where, name in _UNPARSABLE_CONFIGS
    for ending, suffix in (("\n", ""), ("\r\n", "-crlf"), ("\r", "-cr"))
])
def test_config_files_that_cannot_be_parsed_are_named_by_file_and_line(
        tmp_path, capsys, monkeypatch, text, where, ending):
    """A config file that ``configparser`` cannot read exits 2 with its file
    and line (or ``[section] key``), before any record is read and before
    anything is written, for every command that takes ``--config``; lines
    end at LF, CRLF or CR (``ending``)."""
    import gwdetect.pipeline as pipeline

    data = tmp_path / "data"
    simulate_small(data)
    capsys.readouterr()
    reads = []
    monkeypatch.setattr(pipeline, "read_signal", reads.append)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text.replace("\n", ending).encode())
    for cmd in ("detect", "roc", "psd", "simulate"):
        out = tmp_path / f"res_{cmd}"
        argv = [] if cmd == "simulate" else _common(data)
        assert main([cmd, "--config", str(cfg), *argv, "--out", str(out)]) == 2, cmd
        err = capsys.readouterr().err
        assert f"{cfg}{where}" in err, (cmd, err)
        assert "Traceback" not in err
        assert not out.exists(), cmd
    assert reads == []


_SHORT = "window 'first-packet' (1200, 500) exceeds the 1000-sample signal"
_ZERO_PSD = "unknown PSD is zero inside the verdict band at 156000 Hz"
_DEAD_BASELINE = "baseline PSD is zero inside the verdict band at 156000 Hz"


@pytest.mark.parametrize("record, cmd, metric, message", [
    pytest.param("short", "detect", "z", _SHORT, id="short-detect"),
    pytest.param("short", "roc", "z", _SHORT, id="short-roc"),
    pytest.param("short", "psd", None, _SHORT, id="short-psd"),
    # a dead transducer
    pytest.param("zero", "detect", "f", _ZERO_PSD, id="zero-detect-f"),
    pytest.param("zero", "detect", "fm", _ZERO_PSD, id="zero-detect-fm"),
    pytest.param("zero", "detect", "janapati", "unknown signal has zero energy",
                 id="zero-detect-janapati"),
    pytest.param("zero", "detect", "qiu", "both signals must have nonzero energy",
                 id="zero-detect-qiu"),
    pytest.param("zero", "roc", "f", _ZERO_PSD, id="zero-roc-f"),
    # a dead transducer among the training baselines: baseline_000
    pytest.param("zero-baseline", "detect", "f", _DEAD_BASELINE, id="zero-baseline-detect-f"),
    pytest.param("zero-baseline", "detect", "fm", _DEAD_BASELINE, id="zero-baseline-detect-fm"),
    pytest.param("zero-baseline", "detect", "z", _DEAD_BASELINE, id="zero-baseline-detect-z"),
    pytest.param("zero-baseline", "roc", "z", _DEAD_BASELINE, id="zero-baseline-roc-z"),
])
def test_a_record_that_cannot_be_scored_is_named_by_its_file(tmp_path, capsys, record, cmd,
                                                             metric, message):
    """A record shorter than the packet window, or all zeros, exits 2 with a
    message that names its file, as the manifest lists it, and writes nothing."""
    data = tmp_path / "data"
    simulate_small(data)
    man = DatasetManifest.load(data / "manifest.csv")
    baseline = record == "zero-baseline"
    entry = next(e for e in man.entries if (e.label == man.baseline_label) == baseline)
    signal = man.load_entry(entry)
    samples = signal.samples[:1000] if record == "short" else np.zeros(signal.samples.size)
    write_signal(man.resolve(entry), Signal(samples, signal.sample_rate, entry.label))
    capsys.readouterr()
    out = tmp_path / "res"
    argv = [*_common(data), "--holdout", "3", "--out", str(out)]
    assert main([cmd, *argv, *([] if cmd == "psd" else ["--metrics", metric])]) == 2
    err = capsys.readouterr().err
    assert f"error: {entry.file}: {message}" in err, err
    assert "Traceback" not in err
    assert not out.exists()


def test_every_report_detect_writes_reads_back_to_its_own_text(tmp_path):
    """Each ``report_*.csv`` of ``detect`` at two alphas is the ``to_csv`` of
    the report read from it, and ``report`` over them renders ``summary.txt``."""
    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    assert main(["detect", *_common(tmp_path / "data", "--alpha", "0.05,0.01",
                                    "--holdout", "3"), "--out", str(out)]) == 0
    reports = sorted(out.glob("report_*.csv"))
    assert [p.name for p in reports] == [f"report_1-2_first-packet_a{a}.csv"
                                         for a in ("0.01", "0.05")]
    for path in reports:
        text = path.read_text()
        assert DetectionReport.from_csv(text).to_csv() == text, path.name
    assert main(["report", *map(str, reports), "--out", str(tmp_path / "again.txt")]) == 0
    assert (tmp_path / "again.txt").read_text() == (out / "summary.txt").read_text()


def test_window_kind_flag_is_read_as_the_config_value_is(tmp_path):
    """``--window-kind`` is checked by the same parser as ``[welch]
    window_kind``, which takes any case: ``HAMMING`` writes what ``hamming``
    writes."""
    simulate_small(tmp_path / "data")
    base = ["detect", *_common(tmp_path / "data"), "--metrics", "fm,z", "--holdout", "2"]
    for kind in ("hamming", "HAMMING"):
        assert main([*base, "--window-kind", kind, "--out", str(tmp_path / kind)]) == 0
    assert tree_digest(tmp_path / "HAMMING") == tree_digest(tmp_path / "hamming")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[welch]\nwindow_kind = HAMMING\n")
    assert main([*base, "--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
    assert tree_digest(tmp_path / "cfg") == tree_digest(tmp_path / "hamming")


@pytest.mark.parametrize("band", ["350000.0,150000.0", "2e7,3e7"])
def test_psd_ignores_the_manifest_band(tmp_path, band):
    """``psd`` draws whole-grid curves and never uses the band, so a band that
    ``detect`` rejects leaves its output unchanged."""
    data = tmp_path / "data"
    simulate_small(data)
    argv = ["psd", *_common(data)]
    assert main([*argv, "--out", str(tmp_path / "before")]) == 0
    manifest = data / "manifest.csv"
    manifest.write_text(_set_line(manifest.read_text(), 3, f"band = {band}"))
    assert main([*argv, "--out", str(tmp_path / "after")]) == 0
    assert tree_digest(tmp_path / "after") == tree_digest(tmp_path / "before")


def test_roc_writes_nothing_when_a_metric_cannot_be_swept(tmp_path, capsys):
    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    rc = main(["roc", *_common(tmp_path / "data"), "--metrics", "f,fm",
               "--holdout", "0", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "ROC needs both held-out healthy and damage cases" in captured.err
    assert "auc" not in captured.out
    assert not out.exists() or not any(out.iterdir())


def test_each_command_reads_every_record_once(tmp_path, monkeypatch):
    import gwdetect.pipeline as pipeline

    simulate_small(tmp_path / "data")
    reads = []
    real = pipeline.read_signal

    def counting(path):
        reads.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(pipeline, "read_signal", counting)
    man = DatasetManifest.load(tmp_path / "data" / "manifest.csv")
    every = sorted(Path(e.file).name for e in man.entries)
    for cmd, extra in (("detect", ["--metrics", "f,fm,z,janapati,qiu",
                                   "--holdout", "3"]),
                       ("roc", ["--metrics", "f,fm,z", "--holdout", "3"]),
                       ("psd", [])):
        reads.clear()
        assert main([cmd, *_common(tmp_path / "data", *extra),
                     "--out", str(tmp_path / cmd)]) == 0
        assert sorted(reads) == every, cmd


def test_the_store_replaces_parsing_and_text_alone_gives_the_same_outputs(tmp_path,
                                                                         monkeypatch):
    """On a simulated dataset no command parses signal text; a copy without
    the sample store is parsed record by record, gives the same bytes, and
    gains no file."""
    simulate_small(tmp_path / "data")
    plain = tmp_path / "plain"
    shutil.copytree(tmp_path / "data", plain)
    shutil.rmtree(plain / "signals" / "__gwcache__")
    before = tree_digest(plain)
    parses = []
    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(a) or real(*a, **k))
    for data, want in (("data", 0), ("plain", 12)):
        for cmd, extra in (("detect", ["--metrics", "f,fm,z,janapati,qiu",
                                       "--alpha", "0.01,0.05", "--holdout", "3"]),
                           ("roc", ["--metrics", "f,fm,z", "--holdout", "3"]),
                           ("psd", [])):
            parses.clear()
            assert main([cmd, *_common(tmp_path / data, *extra),
                         "--out", str(tmp_path / f"res_{data}")]) == 0
            assert len(parses) == want, (data, cmd)
    assert tree_digest(tmp_path / "res_data") == tree_digest(tmp_path / "res_plain")
    assert tree_digest(plain) == before


def test_roc_shared_scores_match_per_metric_sweeps(tmp_path):
    from gwdetect.pipeline import compute_path_scores, roc_sweep
    from gwdetect.spectral import WelchConfig

    simulate_small(tmp_path / "data")
    out = tmp_path / "res"
    assert main(["roc", *_common(tmp_path / "data"), "--metrics", "f,z",
                 "--holdout", "3", "--out", str(out)]) == 0
    man = DatasetManifest.load(tmp_path / "data" / "manifest.csv")
    for metric in ("f", "z"):
        scores = compute_path_scores(man, "1-2", "first-packet", WelchConfig(100, 0.5, 2000),
                                     [metric], holdout=3)
        curve = roc_sweep(scores, metric)
        assert (out / f"roc_1-2_first-packet_{metric}.csv").read_text() == curve.to_csv()


def test_band_full_tests_the_full_grid(tmp_path):
    """``--band full`` and ``[detect] band = full`` score every bin even though
    the manifest declares a band; the library keeps the manifest's band as its
    default."""
    from gwdetect.dataio import fmt
    from gwdetect.pipeline import compute_path_scores, run_inspection
    from gwdetect.spectral import WelchConfig

    simulate_small(tmp_path / "data")
    man = DatasetManifest.load(tmp_path / "data" / "manifest.csv")
    assert man.band is not None
    cfg = tmp_path / "full.cfg"
    cfg.write_text("[detect]\nband = full\n")
    base = ["detect", *_common(tmp_path / "data"), "--metrics", "f,fm,z",
            "--holdout", "3"]
    assert main(base + ["--band", "full", "--out", str(tmp_path / "flag")]) == 0
    assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "config")]) == 0
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    assert tree_digest(tmp_path / "flag") == tree_digest(tmp_path / "config")

    welch = WelchConfig(100, 0.5, 2000)
    full = compute_path_scores(man, "1-2", "first-packet", welch, ["f", "fm", "z"],
                               holdout=3, band=None)
    banded = compute_path_scores(man, "1-2", "first-packet", welch, ["f", "fm", "z"],
                                 holdout=3)
    assert full.band is None and banded.band == man.band
    name = "report_1-2_first-packet_a0.05.csv"
    for scores, run in ((full, "flag"), (banded, "default")):
        report = run_inspection(scores, 0.05)
        assert (tmp_path / run / name).read_text() == report.to_csv()
        # every verdict row is the critical-point decision of its case
        lines = ["case_id,metric,label,verdict"] + [
            f"{cid},{m},{label},{'damaged' if flag else 'healthy'}"
            for m, table in scores.cases.items()
            for cid, label, flag in zip(table.case_ids, table.labels,
                                        oc.critical_point_damaged(table, 0.05))]
        assert (tmp_path / run / "verdicts_1-2_first-packet_a0.05.csv").read_text() == \
            "\n".join(lines) + "\n"
    assert "# band = full\n" in (tmp_path / "flag" / name).read_text()
    assert f"# band = {fmt(man.band[0])}:{fmt(man.band[1])}\n" in \
        (tmp_path / "default" / name).read_text()
    # the full grid reaches bins outside the manifest's band
    assert (full.cases["f"].stat_hi >= banded.cases["f"].stat_hi).all()
    assert (full.cases["f"].stat_hi > banded.cases["f"].stat_hi).any()


# finite doubles over the whole range, with the values the formatter turns at:
# signed zeros, subnormals, the extremes, and 12-digit round-ups to a power of 10
DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     1e300, -1e300, 1.7976931348623157e308]),
    st.integers(-300, 300).map(lambda e: float(f"9.9999999999995e{e}")),
    st.integers(-300, 300).map(lambda e: -float(f"9.99999999999951e{e}")),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), k=st.integers(1, 2),
       header=st.sampled_from(["freq,psd", "freq,lower,upper", "f,100%,%s,%%d"]))
def test_curve_template_writes_the_per_row_formatters_bytes(data, n, k, header):
    """One ``%`` over the template gives the bytes of formatting each row
    alone, for one or two columns, and ``%`` in the fixed text stays
    literal."""
    vector = st.lists(DOUBLES, min_size=n, max_size=n).map(np.array)
    freqs = data.draw(vector)
    columns = [data.draw(vector) for _ in range(k)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        _write_curve(path, _curve_template(header, freqs, k), *columns)
        got = path.read_bytes()
    assert got == oc.curve_text_by_row(header, freqs, *columns).encode()


@pytest.mark.parametrize("arrays", [(9,), (11,), (10, 9), (9, 10), (11, 11)])
def test_curve_writer_raises_when_a_column_does_not_fit_the_grid(tmp_path, arrays):
    """A column longer or shorter than the grid is an error, not a curve cut
    to the shorter length."""
    template = _curve_template("freq,a,b", np.arange(10.0), len(arrays))
    with pytest.raises((TypeError, ValueError)):
        _write_curve(tmp_path / "c.csv", template, *(np.ones(k) for k in arrays))
    assert not (tmp_path / "c.csv").exists()


def test_empty_set_id_is_the_set_named_empty_in_every_command(tmp_path):
    """``--set-id ''`` and a blank ``[data] set`` name the set called '' for
    ``psd`` as for ``detect`` and ``roc``; they do not mean every set."""
    simulate_small(tmp_path / "data")
    man = DatasetManifest.load(tmp_path / "data" / "manifest.csv")
    man.entries = [ManifestEntry(e.file, e.label, e.path_id, ("", "s1")[k % 2])
                   for k, e in enumerate(man.entries)]
    man.save(tmp_path / "data" / "manifest.csv")
    assert man.sets_for("1-2") == ["", "s1"]
    config = tmp_path / "blank.ini"
    config.write_text("[data]\nset =\n")
    for name, source in (("flag", ["--set-id", ""]), ("config", ["--config", str(config)])):
        out = tmp_path / name
        assert main(["psd", *_common(tmp_path / "data", *source), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("band_*")) == [
            "band_experimental_1-2_.csv", "band_theoretical_1-2_.csv"], name
        want = {f"psd_1-2_{i:03d}_{Path(e.file).stem}.csv"
                for i, e in enumerate(man.entries) if e.set_id == ""}
        assert {p.name for p in out.glob("psd_*")} == want, name
        assert main(["detect", *_common(tmp_path / "data", *source), "--metrics", "fm",
                     "--holdout", "1", "--out", str(out)]) == 0
        verdicts = next(out.glob("verdicts_*.csv")).read_text().splitlines()[1:]
        assert verdicts and all(v.startswith(":") for v in verdicts), name


def test_report_reads_back_set_ids_that_hold_a_colon(tmp_path):
    """Set ids such as timestamps hold ':'; ``report`` over the reports that
    ``detect`` writes for them renders ``detect``'s own summary."""
    simulate_small(tmp_path / "data")
    man = DatasetManifest.load(tmp_path / "data" / "manifest.csv")
    stamps = ("2021-03-01T10:00", "2021-03-02T10:00:30")
    man.entries = [ManifestEntry(e.file, e.label, e.path_id, stamps[k % 2])
                   for k, e in enumerate(man.entries)]
    man.save(tmp_path / "data" / "manifest.csv")
    out = tmp_path / "res"
    assert main(["detect", *_common(tmp_path / "data", "--metrics", "f,z",
                                    "--alpha", "0.01,0.05", "--holdout", "1"),
                 "--out", str(out)]) == 0
    reports = sorted(out.glob("report_*.csv"))
    assert len(reports) == 2
    assert "# m_train = 2021-03-01T10:00:3;2021-03-02T10:00:30:3" in reports[0].read_text()
    assert main(["report", *map(str, reports), "--out", str(tmp_path / "again.txt")]) == 0
    assert (tmp_path / "again.txt").read_text() == (out / "summary.txt").read_text()


def test_detect_summarizes_paths_that_list_damage_labels_in_another_order(tmp_path):
    """Two paths with the same damage labels, listed in another order, are one
    summary whose columns follow the first report's labels."""
    simulate_small(tmp_path / "data")
    man = DatasetManifest.load(tmp_path / "data" / "manifest.csv")
    healthy = [e for e in man.entries if e.label == man.baseline_label]
    damaged = [e for e in man.entries if e.label != man.baseline_label]
    assert [e.label for e in damaged] == ["att-0.9", "att-0.9", "att-0.5", "att-0.5"]
    other = [ManifestEntry(e.file, e.label, "1-3", e.set_id)
             for e in (*healthy, *damaged[2:], *damaged[:2])]
    man.entries = [*man.entries, *other]
    man.save(tmp_path / "data" / "manifest.csv")
    out = tmp_path / "res"
    assert main(["detect", *_common(tmp_path / "data", "--metrics", "fm,qiu",
                                    "--holdout", "3"), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    blocks = summary.rstrip("\n").split("\n\n")
    assert len(blocks) == 2 and "path = 1-3" in blocks[1]
    assert "missed_%[att-0.9]  missed_%[att-0.5]" in blocks[0]
    assert blocks[1].replace("path = 1-3", "path = 1-2") == blocks[0]
    reports = sorted(out.glob("report_*.csv"))
    assert main(["report", *map(str, reports), "--out", str(tmp_path / "again.txt")]) == 0
    assert (tmp_path / "again.txt").read_text() == summary


def test_summary_and_report_order_labels_alike_whatever_the_manifest_order(tmp_path):
    """A manifest whose first path (``2-3``) is not the first by name and
    lists the damage labels in another order than ``1-2``: ``summary.txt``
    and ``report`` over the reports, in either order, are the same table,
    with the labels in the order of the first block's path."""
    simulate_small(tmp_path / "data")
    man = DatasetManifest.load(tmp_path / "data" / "manifest.csv")
    healthy = [e for e in man.entries if e.label == man.baseline_label]
    damaged = [e for e in man.entries if e.label != man.baseline_label]
    assert [e.label for e in damaged] == ["att-0.9", "att-0.9", "att-0.5", "att-0.5"]
    first = [ManifestEntry(e.file, e.label, "2-3", e.set_id)
             for e in (*healthy, *damaged[2:], *damaged[:2])]
    man.entries = [*first, *man.entries]
    man.save(tmp_path / "data" / "manifest.csv")
    assert DatasetManifest.load(tmp_path / "data" / "manifest.csv").paths() == ["2-3", "1-2"]
    out = tmp_path / "res"
    assert main(["detect", *_common(tmp_path / "data", "--metrics", "fm",
                                    "--holdout", "3"), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert summary.index("path = 1-2") < summary.index("path = 2-3")
    assert summary.count("missed_%[att-0.9]  missed_%[att-0.5]") == 2
    reports = sorted(out.glob("report_*.csv"))
    for order in (reports, reports[::-1]):
        assert main(["report", *map(str, order), "--out", str(tmp_path / "again.txt")]) == 0
        assert (tmp_path / "again.txt").read_text() == summary


def test_each_command_opens_every_signal_file_once(tmp_path, opened):
    """Every record's text file is opened once per command, with the sample
    store or without one; the store is opened (or looked for) once per
    record, and no other file under ``signals/`` is opened."""
    simulate_small(tmp_path / "data")
    shutil.copytree(tmp_path / "data", tmp_path / "plain")
    shutil.rmtree(tmp_path / "plain" / "signals" / "__gwcache__")
    man = DatasetManifest.load(tmp_path / "data" / "manifest.csv")
    for data in ("data", "plain"):
        signals = tmp_path / data / "signals"
        want = {str(signals / Path(e.file).name): 1 for e in man.entries}
        want[str(signals / "__gwcache__" / "samples.gws")] = len(man.entries)
        for cmd, extra in (("detect", ["--metrics", "f,fm,z,janapati,qiu",
                                       "--alpha", "0.01,0.05", "--holdout", "3"]),
                           ("roc", ["--metrics", "f,fm,z", "--holdout", "3"]),
                           ("psd", [])):
            opened.clear()
            assert main([cmd, *_common(tmp_path / data, *extra),
                         "--out", str(tmp_path / f"res_{data}_{cmd}")]) == 0
            assert Counter(p for p in opened if p.startswith(str(signals))) == want, (data, cmd)
