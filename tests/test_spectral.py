import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles as oc
from gwdetect import spectral
from gwdetect.spectral import (
    WINDOW_KINDS,
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
    for rate in (0.0, -1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="sample_rate must be finite and > 0"):
            Signal(np.ones(4), rate)
        with pytest.raises(ValueError, match="sample_rate must be finite and > 0"):
            WelchConfig(16).freq_grid(rate)


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
    with pytest.raises(ValueError, match="PSD values must be nonnegative"):
        PsdEstimate(values=-np.ones(9), freq_grid=grid, config=cfg, k_windows=3)
    with pytest.raises(ValueError, match="values and freq_grid must be 1-D arrays of equal"):
        PsdEstimate(values=np.ones(5), freq_grid=grid, config=cfg, k_windows=3)


@pytest.mark.parametrize("samples, message", [
    ([1.0, np.nan, 2.0], "samples must all be finite"),
    ([1.0, np.inf], "samples must all be finite"),
    ([-np.inf, 1.0], "samples must all be finite"),
    (np.ones((2, 3)), "samples must be a nonempty 1-D sequence"),
    (3.0, "samples must be a nonempty 1-D sequence"),
    ([], "samples must be a nonempty 1-D sequence"),
])
def test_signal_checks_name_their_rule(samples, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Signal(samples, 1.0)


def _with_bins(bins):
    values = np.ones(9)
    for i, v in bins.items():
        values[i] = v
    return values


@pytest.mark.parametrize("values, message", [
    (_with_bins({3: np.nan}), "PSD values must be finite"),
    (_with_bins({0: np.inf}), "PSD values must be finite"),
    (_with_bins({8: -np.inf}), "PSD values must be finite"),
    # finiteness is tested before sign
    (_with_bins({1: -1.0, 5: np.nan}), "PSD values must be finite"),
    (_with_bins({1: -1.0, 5: np.inf}), "PSD values must be finite"),
    (_with_bins({4: -1.0}), "PSD values must be nonnegative"),
    (_with_bins({4: -5e-324}), "PSD values must be nonnegative"),
    (np.ones(8), "values and freq_grid must be 1-D arrays of equal length"),
    (np.ones((1, 9)), "values and freq_grid must be 1-D arrays of equal length"),
])
def test_psd_estimate_checks_name_their_rule(values, message):
    cfg = WelchConfig(8, 0.5, 16)
    with pytest.raises(ValueError, match=re.escape(message)):
        PsdEstimate(values=values, freq_grid=cfg.freq_grid(100.0), config=cfg, k_windows=3)


def test_psd_estimate_length_and_window_count_checks():
    cfg = WelchConfig(8, 0.5, 16)
    short_grid = np.arange(5.0)
    with pytest.raises(ValueError, match=re.escape("values length must be nfft//2 + 1")):
        PsdEstimate(values=np.ones(5), freq_grid=short_grid, config=cfg, k_windows=3)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k_windows must be >= 1"):
            PsdEstimate(values=np.ones(9), freq_grid=cfg.freq_grid(100.0), config=cfg,
                        k_windows=k)
    # zeros, negative zeros and the largest float are all valid PSD values
    edge = _with_bins({0: 0.0, 1: -0.0, 2: np.finfo(float).max})
    psd = PsdEstimate(values=edge, freq_grid=cfg.freq_grid(100.0), config=cfg, k_windows=1)
    assert psd.values.tobytes() == edge.tobytes()


def test_welch_psd_output_can_fail_the_finite_check():
    # the squared DFT of a finite record can overflow, so the estimate that
    # welch_psd builds is checked like any other
    x = np.random.default_rng(9).normal(size=144)
    cfg = WelchConfig(16, 0.0, 16, "rectangular", detrend_mean=False)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="PSD values must be finite"):
        welch_psd(Signal(1e200 * x, 1.0), cfg)
    assert np.isfinite(welch_psd(Signal(1e100 * x, 1.0), cfg).values).all()


@st.composite
def welch_cases(draw):
    """A signal and a config over every window kind, odd and even ``nfft``,
    detrend on and off, and contiguous or strided samples."""
    L = draw(st.integers(2, 64))
    overlap = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9]))
    kind = draw(st.sampled_from(WINDOW_KINDS))
    assume(round(L * (1.0 - overlap)) >= 1)
    assume(not (kind == "bartlett" and L == 2))  # a zero-energy taper
    cfg = WelchConfig(L, overlap, L + draw(st.integers(0, 70)), kind,
                      detrend_mean=draw(st.booleans()))
    n = L + draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 7.0])), 2 * n)
    x = x[::2] if draw(st.booleans()) else x[:n]
    return Signal(x, draw(st.sampled_from([1.0, 3.3, 5e5, 24e6]))), cfg


@settings(max_examples=300, deadline=None)
@given(case=welch_cases())
def test_welch_psd_is_byte_equal_to_the_per_call_reference(case):
    sig, cfg = case
    values, grid, k = oc.welch_reference(sig, cfg)
    psd = welch_psd(sig, cfg)
    assert psd.values.tobytes() == values.tobytes()
    assert psd.freq_grid.tobytes() == grid.tobytes()
    assert psd.k_windows == k


def test_cached_setup_is_read_only_and_make_window_stays_fresh():
    cfg = WelchConfig(32, 0.5, 64, "hamming")
    x = np.random.default_rng(3).normal(size=400)
    first = welch_psd(Signal(x, 1e3), cfg)
    plan = spectral._plan(cfg, x.size)
    taper, index = plan.taper, plan.index
    assert plan.k == cfg.window_count(x.size) == first.k_windows
    assert spectral._plan(WelchConfig(32, 0.5, 64, "hamming"), x.size) is plan
    for cached in (taper, index, first.freq_grid, cfg.freq_grid(1e3)):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1
    fresh, _ = make_window("hamming", 32)
    assert fresh.flags.writeable and fresh is not taper
    fresh[:] = 0.0
    assert np.array_equal(make_window("hamming", 32)[0], taper)
    assert welch_psd(Signal(x, 1e3), cfg).values.tobytes() == first.values.tobytes()


def test_alternating_configs_and_rates_get_their_own_grids():
    x = np.random.default_rng(4).normal(size=300)
    configs = (WelchConfig(16, 0.5, 16), WelchConfig(16, 0.5, 33, "bartlett"),
               WelchConfig(20, 0.0, 64, "rectangular", detrend_mean=False))
    for _ in range(2):
        for cfg in configs:
            for fs in (1.0, 24e6, 5e5):
                sig = Signal(x, fs)
                values, grid, k = oc.welch_reference(sig, cfg)
                psd = welch_psd(sig, cfg)
                assert psd.freq_grid.tobytes() == grid.tobytes()
                assert psd.values.tobytes() == values.tobytes()
                assert psd.freq_grid is cfg.freq_grid(fs)


def test_same_grid_by_identity_by_value_and_not_across_grids():
    cfg = WelchConfig(8, 0.5, 16)
    x = np.random.default_rng(6).normal(size=64)
    a = welch_psd(Signal(x, 100.0), cfg)
    b = welch_psd(Signal(2.0 * x, 100.0), cfg)
    assert a.freq_grid is b.freq_grid and a.same_grid(b)
    copy = PsdEstimate(values=b.values, freq_grid=np.array(b.freq_grid), config=cfg,
                       k_windows=b.k_windows)
    assert copy.freq_grid is not a.freq_grid
    assert a.same_grid(copy) and copy.same_grid(a)
    shifted = PsdEstimate(values=a.values, freq_grid=a.freq_grid + 1.0, config=cfg,
                          k_windows=a.k_windows)
    assert not a.same_grid(shifted)
    assert not a.same_grid(welch_psd(Signal(x, 200.0), cfg))
    # equal grid values under another config
    assert not a.same_grid(welch_psd(Signal(x, 100.0), WelchConfig(8, 0.5, 16, "bartlett")))
