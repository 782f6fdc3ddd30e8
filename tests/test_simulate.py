import math
import re

import numpy as np
import pytest

from gwdetect.pipeline import DatasetManifest
from gwdetect.simulate import (
    IDENTITY_DAMAGE,
    DamageSpec,
    ToneBurstSpec,
    attenuation_ladder,
    noise_std_for_snr,
    propagate,
    synth_dataset,
    tone_burst,
)


def test_burst_duration_arithmetic():
    # 5 cycles at 250 kHz sampled at 24 MHz: 480 samples
    spec = ToneBurstSpec(center_freq=250e3, n_cycles=5, sample_rate=24e6)
    assert tone_burst(spec).samples.size == 480


def test_burst_peak_is_half_peak_to_peak():
    spec = ToneBurstSpec(center_freq=250e3, amplitude=90.0)
    burst = tone_burst(spec)
    assert np.max(np.abs(burst.samples)) == 45.0


def test_burst_zero_crossing_count():
    for env in ("hanning", "hamming"):
        spec = ToneBurstSpec(center_freq=250e3, n_cycles=5, envelope=env)
        b = tone_burst(spec).samples
        nz = b[np.abs(b) > 1e-9 * np.max(np.abs(b))]
        crossings = int(np.sum(np.signbit(nz[1:]) != np.signbit(nz[:-1])))
        assert abs(crossings - 2 * spec.n_cycles) <= 1


def test_burst_validation():
    with pytest.raises(ValueError):
        ToneBurstSpec(center_freq=13e6, sample_rate=24e6)  # at/above Nyquist
    with pytest.raises(ValueError):
        ToneBurstSpec(center_freq=250e3, n_cycles=0)
    with pytest.raises(ValueError):
        ToneBurstSpec(center_freq=250e3, amplitude=0.0)
    with pytest.raises(ValueError):
        ToneBurstSpec(center_freq=250e3, envelope="boxcar")
    for rate in (float("inf"), float("nan"), -24e6):
        with pytest.raises(ValueError,
                           match=re.escape(f"sample_rate {rate!r}: expected a finite number > 0")):
            ToneBurstSpec(center_freq=250e3, sample_rate=rate)
    # 1 cycle at 11 MHz is 2 samples at 24 MHz, which a hanning envelope zeroes
    with pytest.raises(ValueError, match=re.escape("n_cycles 1: expected more cycles")):
        tone_burst(ToneBurstSpec(center_freq=11e6, n_cycles=1))
    hamming = ToneBurstSpec(center_freq=11e6, n_cycles=1, envelope="hamming")
    assert tone_burst(hamming).samples.size == 2


def test_damage_spec_validation():
    with pytest.raises(ValueError):
        DamageSpec(attenuation=0.0)
    with pytest.raises(ValueError):
        DamageSpec(attenuation=1.2)
    with pytest.raises(ValueError):
        DamageSpec(delay=-1e-6)
    with pytest.raises(ValueError):
        DamageSpec(scatter_gain=1.0)
    assert IDENTITY_DAMAGE.attenuation == 1.0


def test_propagate_energy_accounting():
    spec = ToneBurstSpec(center_freq=250e3)
    burst = tone_burst(spec)
    e_burst = float(np.sum(burst.samples**2))
    clean = propagate(burst, 50e-6, 0.05, IDENTITY_DAMAGE, n_samples=4000)
    assert np.sum(clean.samples**2) == pytest.approx(0.05**2 * e_burst, rel=1e-12)
    att = propagate(burst, 50e-6, 0.05, DamageSpec(attenuation=0.5, label="d"),
                    n_samples=4000)
    assert np.sum(att.samples**2) == pytest.approx(0.25 * 0.05**2 * e_burst, rel=1e-12)
    # disjoint echo adds scatter_gain^2 worth of bare-burst energy
    sc = propagate(burst, 50e-6, 0.05,
                   DamageSpec(attenuation=0.8, scatter_gain=0.1, label="d"),
                   n_samples=4000)
    want = (0.05 * 0.8) ** 2 * e_burst + 0.1**2 * e_burst
    assert np.sum(sc.samples**2) == pytest.approx(want, rel=1e-9)


def test_propagate_delay_and_placement():
    spec = ToneBurstSpec(center_freq=250e3)
    burst = tone_burst(spec)
    out = propagate(burst, 50e-6, 1.0, DamageSpec(delay=10e-6, label="d"),
                    n_samples=4000)
    first = int(np.nonzero(out.samples)[0][0])
    assert first >= int(round(60e-6 * 24e6)) - 1
    with pytest.raises(ValueError):
        propagate(burst, 50e-6, 1.0, IDENTITY_DAMAGE, n_samples=1500)
    with pytest.raises(ValueError):
        propagate(burst, 50e-6, 1.0, DamageSpec(scatter_gain=0.1, label="d"),
                  n_samples=1900)


def test_propagate_seed_reproducibility():
    spec = ToneBurstSpec(center_freq=250e3)
    burst = tone_burst(spec)
    a = propagate(burst, 50e-6, 0.05, noise_std=0.01, seed=99, n_samples=4000)
    b = propagate(burst, 50e-6, 0.05, noise_std=0.01, seed=99, n_samples=4000)
    c = propagate(burst, 50e-6, 0.05, noise_std=0.01, seed=100, n_samples=4000)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_noise_std_for_snr():
    spec = ToneBurstSpec(center_freq=250e3)
    clean = propagate(tone_burst(spec), 50e-6, 0.05, n_samples=4000)
    std = noise_std_for_snr(clean, 40.0)
    support = clean.samples[clean.samples != 0.0]
    assert std == pytest.approx(np.sqrt(np.mean(support**2)) / 100.0)


def test_attenuation_ladder():
    ladder = attenuation_ladder(6)
    assert len(ladder) == 6
    gains = [d.attenuation for d in ladder]
    assert gains[0] == 0.9 and gains[-1] == 0.5
    assert all(b < a for a, b in zip(gains, gains[1:]))
    assert all(d.label for d in ladder)
    assert attenuation_ladder(0) == []


def test_synth_dataset_layout(tmp_path):
    man = synth_dataset(tmp_path, n_baseline=20,
                        damage_specs=[DamageSpec(attenuation=0.7, label="notch")],
                        n_per_damage=1, seed=3, n_samples=3000)
    assert len(man.entries) == 21
    assert sum(e.label == "healthy" for e in man.entries) == 20
    assert sum(e.label == "notch" for e in man.entries) == 1
    assert (tmp_path / "manifest.csv").exists()
    reloaded = DatasetManifest.load(tmp_path / "manifest.csv")
    assert [e.file for e in reloaded.entries] == [e.file for e in man.entries]
    assert reloaded.band == man.band
    assert reloaded.packet_windows["first-packet"][0] == 1200


def test_synth_dataset_baseline_only(tmp_path):
    man = synth_dataset(tmp_path, n_baseline=3, damage_specs=[], seed=1,
                        n_samples=2200)
    assert len(man.entries) == 3
    assert all(e.label == "healthy" for e in man.entries)


@pytest.mark.parametrize("labels, twice", [
    (["x", "x"], "x_000"),
    (["baseline", "y"], "baseline_000"),
])
def test_synth_dataset_rejects_two_records_with_one_name(tmp_path, labels, twice):
    specs = [DamageSpec(att, label=lbl) for att, lbl in zip((0.5, 0.9), labels)]
    with pytest.raises(ValueError, match=f"signals/{twice}.csv"):
        synth_dataset(tmp_path, n_baseline=3, damage_specs=specs, seed=1,
                      n_samples=2200)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("label, message", [
    ("", "needs a label"),
    ("a\nb", "holds a line break"),
    ("a\u2028b", "holds a line break"),
    ("a/b", "not a plain file-name part"),
    ("a\\b", "not a plain file-name part"),
    ("a,b", "holds ','"),  # the manifest entry's rule
    ("b ", "label field 'b ' has whitespace at an end"),
    ("a\0b", "not a plain file-name part"),
    ("healthy", "'healthy' is the baseline label"),
])
def test_synth_dataset_checks_every_label_before_writing(tmp_path, label, message):
    specs = [DamageSpec(0.9, label="ok"), DamageSpec(0.5, label=label)]
    with pytest.raises(ValueError, match=message):
        synth_dataset(tmp_path, n_baseline=3, damage_specs=specs, seed=1,
                      n_samples=2200)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("level", [
    {"noise_std": -1.0},
    {"noise_std": float("nan")},
    {"noise_std": float("inf")},
    {"snr_db": float("nan")},
    {"snr_db": float("inf")},
    {"snr_db": float("-inf"), "noise_std": 0.1},
])
def test_synth_dataset_checks_the_noise_level_before_writing(tmp_path, level):
    name = next(iter(level))
    with pytest.raises(ValueError,
                       match=re.escape(f"{name} {level[name]!r}: expected a finite number")):
        synth_dataset(tmp_path, n_baseline=3, seed=1, n_samples=2200, **level)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("part, name, value, expected", [
    ("dataset", "arrival_delay", math.nan, "a finite number >= 0"),
    ("dataset", "arrival_delay", -1.0, "a finite number >= 0"),
    ("dataset", "arrival_delay", math.inf, "a finite number >= 0"),
    ("dataset", "path_gain", math.nan, "a finite number"),
    ("dataset", "path_gain", 0.0, "a finite number other than 0, as snr_db sets the noise level"),
    ("dataset", "n_baseline", 1, "an integer >= 2"),
    ("dataset", "seed", -1, "a non-negative integer"),
    ("dataset", "n_per_damage", -1, "a non-negative integer"),
    ("dataset", "n_samples", 1679,
     "an integer >= 1680, where the packet placed by arrival_delay ends"),
    ("burst", "center_freq", math.nan, "a number > 0 below half the sample_rate, 1.2e+07 Hz, "
                                   "above which it would alias"),
    ("burst", "center_freq", 0.0, "a number > 0 below half the sample_rate"),
    ("burst", "sample_rate", math.nan, "a finite number > 0"),
    ("burst", "n_cycles", 0, "an integer >= 1"),
    ("burst", "amplitude", math.inf, "a finite number > 0"),
    ("burst", "envelope", "boxcar", "'hanning' or 'hamming'"),
    ("ladder", "n_steps", -1, "a non-negative integer"),
    ("ladder", "start", 1.5, "a number in (0, 1]"),
    ("ladder", "stop", math.inf, "a number in (0, 1]"),
    ("ladder", "stop", 0.0, "a number in (0, 1]"),
])
def test_each_generator_refusal_names_its_parameter_before_writing(tmp_path, part, name,
                                                                   value, expected):
    kwargs = {"burst": {"center_freq": 250e3}, "ladder": {"n_steps": 2},
              "dataset": {"n_baseline": 3, "n_samples": 2200, "seed": 1}}
    kwargs[part][name] = value
    with pytest.raises(ValueError, match=re.escape(f"{name} {value!r}: expected {expected}")):
        synth_dataset(tmp_path, burst=ToneBurstSpec(**kwargs["burst"]),
                      damage_specs=attenuation_ladder(**kwargs["ladder"]), **kwargs["dataset"])
    assert list(tmp_path.iterdir()) == []


def test_noiseless_identity_signal_is_healthy_everywhere():
    # a clean record must sit inside every healthy bound once the baseline
    # ensemble carries any noise at all
    from gwdetect.detectors import (
        BaselineEnsemble,
        experimental_band,
        f_statistic,
        fm_statistic,
        janapati_di,
        qiu_di,
        z_statistic,
    )
    from gwdetect.spectral import Signal, WelchConfig, welch_psd

    spec = ToneBurstSpec(center_freq=250e3)
    burst = tone_burst(spec)
    noise = 1e-4 * 45.0
    base = [propagate(burst, 50e-6, 0.05, IDENTITY_DAMAGE, noise_std=noise,
                      seed=200 + i, n_samples=3000) for i in range(10)]
    clean = propagate(burst, 50e-6, 0.05, IDENTITY_DAMAGE, noise_std=0.0,
                      n_samples=3000)
    cfg = WelchConfig(100, 0.5, 2000, "hamming")
    band = (150e3, 350e3)

    def packet_psd(sig):
        return welch_psd(Signal(sig.samples[1200:1700], sig.sample_rate), cfg)

    members = [packet_psd(s) for s in base]
    ens = BaselineEnsemble.from_psds(members)
    unknown = packet_psd(clean)
    assert f_statistic(members[0], unknown, 0.05, band).verdict == "healthy"
    assert fm_statistic(ens, unknown, 0.05, band).verdict == "healthy"
    assert z_statistic(ens, unknown, 0.05, band).verdict == "healthy"
    for di in (janapati_di, qiu_di):
        scatter = [di(a.samples, b.samples) for a in base for b in base if a is not b]
        bandc = experimental_band(scatter, 0.05)
        value = di(base[0].samples, clean.samples)
        # a clean record is *more* correlated with the baselines than noisy
        # healthy pairs are with each other, so it can undershoot the healthy
        # scatter; the damage direction is the upper side
        assert value <= bandc.upper
        assert abs(value) <= max(abs(bandc.lower), abs(bandc.upper))


def test_synth_dataset_ladder_z_maxima_monotone(tmp_path):
    # vanishing noise: deeper attenuation moves the estimate further from the
    # healthy mean, so the peak normalized deviation never decreases
    from gwdetect.detectors import BaselineEnsemble, z_statistic
    from gwdetect.pipeline import extract_packet
    from gwdetect.spectral import WelchConfig, welch_psd

    ladder = attenuation_ladder(10, start=1.0, stop=0.5)
    man = synth_dataset(tmp_path, n_baseline=6, damage_specs=ladder,
                        n_per_damage=1, noise_std=1e-9, seed=5, n_samples=3000)
    cfg = WelchConfig(100, 0.5, 2000, "hamming")

    def psd_of(entry):
        return welch_psd(extract_packet(man.load_entry(entry), "first-packet", man), cfg)

    base = [psd_of(e) for e in man.entries if e.label == "healthy"]
    ens = BaselineEnsemble.from_psds(base)
    maxima = []
    for spec in ladder:
        entry = next(e for e in man.entries if e.label == spec.label)
        series = z_statistic(ens, psd_of(entry), 0.05, man.band)
        from gwdetect.detectors import _band_mask
        mask = _band_mask(series.freqs, man.band) & (ens.var_psd > 0)
        maxima.append(float(series.values[mask].max()))
    assert all(b >= a * (1 - 1e-9) for a, b in zip(maxima, maxima[1:]))
