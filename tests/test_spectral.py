import numpy as np
import pytest

import oracles as oc
from gwdetect.spectral import (
    PsdEstimate,
    Signal,
    WelchConfig,
    make_window,
    welch_psd,
    welch_theoretical_moments,
)
from gwdetect.statdist import chi2_cdf


def test_rectangular_window_is_all_ones():
    w, u = make_window("rectangular", 4)
    assert np.array_equal(w, np.ones(4))
    assert u == 1.0


def test_bartlett_window_shape():
    for L in (3, 8, 101):
        w, u = make_window("bartlett", L)
        assert w[0] == 0.0 and w[-1] == 0.0
        assert np.allclose(w, w[::-1])
        assert u == pytest.approx(np.mean(w**2), rel=1e-15)


def test_hamming_u_matches_direct_summation():
    w, u = make_window("hamming", 100)
    w_ref, u_ref = oc.window_by_loop("hamming", 100)
    assert np.allclose(w, w_ref, rtol=1e-14)
    assert u == pytest.approx(u_ref, rel=1e-12)


def test_unsupported_window_kind():
    with pytest.raises(ValueError):
        make_window("blackman", 16)
    with pytest.raises(ValueError):
        WelchConfig(segment_length=16, window_kind="kaiser")


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.array([]), 1.0)
    with pytest.raises(ValueError):
        Signal(np.array([1.0, np.nan]), 1.0)
    with pytest.raises(ValueError):
        Signal(np.ones(4), 0.0)


def test_zero_signal_gives_zero_psd():
    sig = Signal(np.zeros(600), 24e6)
    psd = welch_psd(sig, WelchConfig(100, 0.5, 2000))
    assert np.array_equal(psd.values, np.zeros(1001))


def test_bench_configuration_window_counts():
    # L=100, 50% overlap, nfft=2000, fs=24 MHz: 9 windows at N=500, 159 at N=8000
    cfg = WelchConfig(segment_length=100, overlap_fraction=0.5, nfft=2000)
    assert cfg.step == 50
    assert cfg.window_count(500) == 9
    assert cfg.window_count(8000) == 159
    grid = cfg.freq_grid(24e6)
    assert grid.size == 1001
    assert grid[1] - grid[0] == pytest.approx(12_000.0)
    sig = Signal(np.random.default_rng(0).normal(size=8000), 24e6)
    assert welch_psd(Signal(sig.samples[:500], 24e6), cfg).k_windows == 9
    assert welch_psd(sig, cfg).k_windows == 159


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(123)
    for _ in range(8):
        L = int(rng.integers(8, 64))
        ov = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
        cfg = WelchConfig(L, ov, int(rng.integers(L, 160)),
                          str(rng.choice(["hamming", "bartlett", "rectangular"])),
                          detrend_mean=bool(rng.integers(0, 2)))
        if cfg.window_kind == "bartlett" and L == 2:
            continue
        k = int(rng.integers(2, 9))
        n = L + cfg.step * (k - 1) + int(rng.integers(0, cfg.step))
        x = rng.normal(0.0, 1.0, n) * float(rng.uniform(0.1, 10.0))
        psd = welch_psd(Signal(x, 5e5), cfg)
        ref = oc.brute_force_welch(x, 5e5, L, cfg.step, cfg.nfft,
                                   cfg.window_kind, cfg.detrend_mean)
        assert np.all(np.abs(psd.values - ref) <= 1e-10 * np.abs(ref))


def test_scale_equivariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=700)
    cfg = WelchConfig(64, 0.5, 128, "hamming", detrend_mean=False)
    base = welch_psd(Signal(x, 1e6), cfg).values
    # power-of-two gains commute with every float operation exactly
    assert np.array_equal(welch_psd(Signal(4.0 * x, 1e6), cfg).values, 16.0 * base)
    got = welch_psd(Signal(3.7 * x, 1e6), cfg).values
    assert np.allclose(got, 3.7**2 * base, rtol=1e-12)


def test_white_noise_level_and_parseval():
    rng = np.random.default_rng(11)
    fs = 2e6
    x = rng.normal(0.0, 1.0, 200_000)
    psd = welch_psd(Signal(x, fs), WelchConfig(200, 0.5, 200, "hamming"))
    interior = psd.values[5:-5].mean()
    assert interior == pytest.approx(2.0 / fs, rel=0.02)  # one-sided doubling
    # single rectangular window covering the whole record: total power is exact
    y = rng.normal(0.0, 2.0, 512)
    y = y - y.mean()
    cfg = WelchConfig(512, 0.0, 512, "rectangular", detrend_mean=False)
    est = welch_psd(Signal(y, fs), cfg)
    assert np.sum(est.values) * est.df == pytest.approx(np.mean(y**2), rel=1e-8)


def test_estimator_chi_square_law():
    # overlap 0 + rectangular + nfft = L: 2K * est / truth is chi-square(2K) per bin
    rng = np.random.default_rng(21)
    fs = 1.0
    L, k = 32, 6
    cfg = WelchConfig(L, 0.0, L, "rectangular", detrend_mean=False)
    truth = 2.0 / fs
    n_trials = 2000
    bin_idx = 9
    draws = np.empty(n_trials)
    for i in range(n_trials):
        x = rng.normal(0.0, 1.0, L * k)
        draws[i] = welch_psd(Signal(x, fs), cfg).values[bin_idx]
    stat = oc.ks_statistic(2 * k * draws / truth, lambda v: chi2_cdf(v, 2 * k))
    assert stat < oc.ks_critical_value(n_trials, 0.01)


def test_welch_errors():
    sig = Signal(np.ones(50), 1e3)
    with pytest.raises(ValueError):
        welch_psd(sig, WelchConfig(100, 0.5, 200))  # N < L


def test_theoretical_moments_examples():
    cfg = WelchConfig(100, 0.5, 2000, "bartlett")
    zero = welch_theoretical_moments(0.0, cfg, 8000)
    assert (zero.mean, zero.variance) == (0.0, 0.0)
    one = welch_theoretical_moments(1.0, cfg, 8000)
    two = welch_theoretical_moments(2.0, cfg, 8000)
    assert one.variance == pytest.approx(9.0 / 16.0 * 100 / 8000, rel=1e-15)
    assert two.variance == pytest.approx(4.0 * one.variance, rel=1e-12)
    assert one.mean == 1.0
    assert one.raw_mean > 0.0


def test_theoretical_moments_requires_bartlett():
    with pytest.raises(ValueError):
        welch_theoretical_moments(1.0, WelchConfig(100, 0.5, 2000, "hamming"), 8000)


def test_psd_estimate_invariants():
    cfg = WelchConfig(8, 0.5, 16)
    grid = cfg.freq_grid(100.0)
    with pytest.raises(ValueError):
        PsdEstimate(values=-np.ones(9), freq_grid=grid, config=cfg, k_windows=3)
    with pytest.raises(ValueError):
        PsdEstimate(values=np.ones(5), freq_grid=grid, config=cfg, k_windows=3)
