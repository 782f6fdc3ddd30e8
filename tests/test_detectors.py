import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as oc
from gwdetect.detectors import (
    DAMAGED,
    HEALTHY,
    BaselineEnsemble,
    experimental_band,
    f_statistic,
    fm_statistic,
    janapati_di,
    qiu_di,
    theoretical_band,
    z_statistic,
)
from gwdetect.spectral import PsdEstimate, Signal, WelchConfig, welch_psd
from gwdetect.statdist import normal_quantile

FS = 1.0
CFG = WelchConfig(32, 0.0, 32, "rectangular", detrend_mean=False)  # K exact per segment


def white_psd(rng, k=9, scale=1.0):
    x = rng.normal(0.0, scale, 32 * k)
    return welch_psd(Signal(x, FS), CFG)


def psd_like(template, values):
    return PsdEstimate(values=values, freq_grid=template.freq_grid,
                       config=template.config, k_windows=template.k_windows)


# ---------------------------------------------------------------------------
# ratio statistics
# ---------------------------------------------------------------------------

def test_f_identity_is_one_and_healthy():
    rng = np.random.default_rng(0)
    psd = white_psd(rng)
    for alpha in (1e-6, 0.05, 0.5, 0.999):
        series = f_statistic(psd, psd, alpha)
        assert np.array_equal(series.values, np.ones_like(psd.values))
        assert series.verdict == HEALTHY


def test_f_scaling_algebra():
    rng = np.random.default_rng(1)
    psd = white_psd(rng)
    scaled = psd_like(psd, 4.0 * psd.values)
    series = f_statistic(psd, scaled, 0.05)
    assert np.array_equal(series.values, np.full_like(psd.values, 0.25))


def test_f_requires_matching_inputs():
    rng = np.random.default_rng(2)
    a = white_psd(rng, k=9)
    b = white_psd(rng, k=5)
    with pytest.raises(ValueError):
        f_statistic(a, b, 0.05)
    other_cfg = welch_psd(Signal(rng.normal(size=288), FS),
                          WelchConfig(32, 0.0, 64, "rectangular", detrend_mean=False))
    with pytest.raises(ValueError):
        f_statistic(a, other_cfg, 0.05)


def test_f_zero_denominator_in_band():
    rng = np.random.default_rng(3)
    psd = white_psd(rng)
    dead = psd.values.copy()
    dead[4] = 0.0
    with pytest.raises(ValueError):
        f_statistic(psd, psd_like(psd, dead), 0.05)
    # harmless when the zero sits outside the verdict band
    f_lo, f_hi = psd.freq_grid[8], psd.freq_grid[12]
    series = f_statistic(psd, psd_like(psd, dead), 0.05, band=(f_lo, f_hi))
    assert series.verdict in (HEALTHY, DAMAGED)


def test_f_null_rejection_rate_is_alpha():
    # independent white-noise estimates at one bin: the decision rule should
    # reject a fraction alpha of the time
    rng = np.random.default_rng(42)
    alpha = 0.05
    n_trials = 3000
    band = (CFG.freq_grid(FS)[7], CFG.freq_grid(FS)[7])
    hits = 0
    for _ in range(n_trials):
        a = white_psd(rng)
        b = white_psd(rng)
        hits += f_statistic(a, b, alpha, band).verdict == DAMAGED
    assert hits / n_trials == pytest.approx(alpha, abs=0.015)


def test_fm_identity_and_m1_reduction():
    rng = np.random.default_rng(4)
    ens = BaselineEnsemble.from_psds([white_psd(rng) for _ in range(6)])
    series = fm_statistic(ens, ens.mean_estimate(), 0.05)
    assert np.array_equal(series.values, np.ones_like(ens.mean_psd))
    assert series.verdict == HEALTHY
    # M = 1 reduces exactly to the single-baseline statistic
    single = white_psd(rng)
    unknown = white_psd(rng)
    one = BaselineEnsemble.from_psds([single])
    a = fm_statistic(one, unknown, 0.05)
    b = f_statistic(single, unknown, 0.05)
    assert np.array_equal(a.values, b.values)
    assert (a.lower_threshold, a.upper_threshold) == (b.lower_threshold, b.upper_threshold)
    assert a.verdict == b.verdict


def test_fm_null_rejection_rate_is_alpha():
    rng = np.random.default_rng(43)
    alpha = 0.05
    n_trials = 1500
    band = (CFG.freq_grid(FS)[7], CFG.freq_grid(FS)[7])
    hits = 0
    for _ in range(n_trials):
        ens = BaselineEnsemble.from_psds([white_psd(rng) for _ in range(15)])
        hits += fm_statistic(ens, white_psd(rng), alpha, band).verdict == DAMAGED
    assert hits / n_trials == pytest.approx(alpha, abs=0.015)


# ---------------------------------------------------------------------------
# z statistic
# ---------------------------------------------------------------------------

def test_z_zero_at_ensemble_mean():
    rng = np.random.default_rng(5)
    ens = BaselineEnsemble.from_psds([white_psd(rng) for _ in range(8)])
    series = z_statistic(ens, ens.mean_estimate(), 0.05)
    assert np.array_equal(series.values, np.zeros_like(ens.mean_psd))
    assert series.verdict == HEALTHY


def test_z_constant_offset_algebra():
    rng = np.random.default_rng(6)
    members = [white_psd(rng) for _ in range(8)]
    ens = BaselineEnsemble.from_psds(members)
    z = 1.7
    shifted = psd_like(members[0], ens.mean_psd + z * np.sqrt(2.0 * ens.var_psd))
    series = z_statistic(ens, shifted, 0.05)
    assert np.allclose(series.values, z, rtol=1e-12)


def test_z_requires_two_baselines():
    rng = np.random.default_rng(7)
    ens = BaselineEnsemble.from_psds([white_psd(rng)])
    with pytest.raises(ValueError):
        z_statistic(ens, white_psd(rng), 0.05)


def test_z_excludes_zero_variance_bins_with_warning():
    rng = np.random.default_rng(8)
    base = white_psd(rng)
    # identical members: zero scatter everywhere except one perturbed bin
    v1 = base.values.copy()
    v2 = base.values.copy()
    v2[5] = v1[5] * 1.5
    ens = BaselineEnsemble.from_psds([psd_like(base, v1), psd_like(base, v2)])
    unknown = psd_like(base, v1 * 1.01)
    with pytest.warns(RuntimeWarning, match="zero baseline variance"):
        series = z_statistic(ens, unknown, 0.05)
    assert series.verdict in (HEALTHY, DAMAGED)
    with pytest.raises(ValueError):
        # single-bin band sitting entirely on a dead bin
        f0 = base.freq_grid[9]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z_statistic(ens, unknown, 0.05, band=(f0, f0))


def test_z_holdout_false_alarm_fraction():
    # healthy draws from the baseline generator: the rule is conservative, so
    # the observed false-alarm fraction must stay below alpha + 0.03
    rng = np.random.default_rng(44)
    alpha = 0.05
    band = (CFG.freq_grid(FS)[7], CFG.freq_grid(FS)[7])
    flags = trials = 0
    for _ in range(150):
        ens = BaselineEnsemble.from_psds([white_psd(rng) for _ in range(15)])
        for _ in range(5):
            flags += z_statistic(ens, white_psd(rng), alpha, band).verdict == DAMAGED
            trials += 1
    assert flags / trials <= alpha + 0.03


def test_verdict_scale_invariance():
    # scaling both baseline and unknown signals by the same gain changes
    # neither values nor verdicts (power-of-two gain: exact in floats)
    rng = np.random.default_rng(9)
    xs = [rng.normal(0.0, 1.0, 32 * 9) for _ in range(6)]
    xu = rng.normal(0.0, 1.1, 32 * 9)
    c = 8.0
    members = [welch_psd(Signal(x, FS), CFG) for x in xs]
    members_c = [welch_psd(Signal(c * x, FS), CFG) for x in xs]
    ens, ens_c = BaselineEnsemble.from_psds(members), BaselineEnsemble.from_psds(members_c)
    u = welch_psd(Signal(xu, FS), CFG)
    u_c = welch_psd(Signal(c * xu, FS), CFG)
    for stat, args in ((f_statistic, (members[0], u)), (fm_statistic, (ens, u)),
                       (z_statistic, (ens, u))):
        plain = stat(*args, 0.05)
        scaled_args = {
            f_statistic: (members_c[0], u_c),
            fm_statistic: (ens_c, u_c),
            z_statistic: (ens_c, u_c),
        }[stat]
        scaled = stat(*scaled_args, 0.05)
        assert np.allclose(plain.values, scaled.values, rtol=1e-12, equal_nan=True)
        assert plain.verdict == scaled.verdict


def test_monotone_alpha_never_flips_healthy_to_damaged():
    rng = np.random.default_rng(10)
    members = [white_psd(rng) for _ in range(10)]
    ens = BaselineEnsemble.from_psds(members)
    unknown = white_psd(rng)
    alphas = [0.5, 0.2, 0.1, 0.05, 0.01, 1e-3, 1e-5]
    for stat, args in ((f_statistic, (members[0], unknown)),
                       (fm_statistic, (ens, unknown)),
                       (z_statistic, (ens, unknown))):
        verdicts = [stat(*args, a).verdict for a in alphas]
        seen_healthy = False
        for v in verdicts:  # alphas shrink left to right
            if seen_healthy:
                assert v == HEALTHY
            seen_healthy = seen_healthy or v == HEALTHY


# ---------------------------------------------------------------------------
# damage indices
# ---------------------------------------------------------------------------

def test_janapati_normalized_identities():
    rng = np.random.default_rng(11)
    y = rng.normal(size=64)
    assert janapati_di(y, y) == 0.0
    assert janapati_di(y, 2.0 * y) == 0.0      # power-of-two gain: exact
    assert janapati_di(y, 0.25 * y) == 0.0
    assert abs(janapati_di(y, 3.7 * y)) < 1e-12


def test_janapati_errors():
    y = np.ones(8)
    with pytest.raises(ValueError):
        janapati_di(np.zeros(8), y)
    with pytest.raises(ValueError):
        janapati_di(y, np.zeros(8))
    with pytest.raises(ValueError):
        janapati_di(y, np.ones(9))


def test_qiu_identities_and_range():
    rng = np.random.default_rng(12)
    y = rng.normal(size=64)
    assert qiu_di(y, y) == 0.0
    assert qiu_di(y, 2.0 * y) == 0.0
    assert qiu_di(y, -0.5 * y) == 0.0          # unsigned correlation
    assert qiu_di(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    for _ in range(25):
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        di = qiu_di(a, b)
        assert 0.0 <= di <= 1.0
        assert qiu_di(a, 4.0 * b) == pytest.approx(di, abs=1e-12)
    with pytest.raises(ValueError):
        qiu_di(np.zeros(8), y[:8])


# ---------------------------------------------------------------------------
# confidence bands
# ---------------------------------------------------------------------------

def test_experimental_band_degenerate_cases():
    curve = np.linspace(1.0, 2.0, 10)
    band = experimental_band([curve, curve, curve], 0.05)
    assert np.allclose(band.lower, curve)
    assert np.allclose(band.upper, curve)
    with pytest.raises(ValueError):
        experimental_band([curve], 0.05)


def test_experimental_band_coverage():
    # 20 draws of a unit normal: the alpha=0.05 band should cover the true
    # mean in at least 90% of repetitions
    rng = np.random.default_rng(13)
    reps = 10_000
    draws = rng.normal(0.0, 1.0, (reps, 20))
    z = normal_quantile(0.975)
    mean = draws.mean(axis=1)
    std = draws.std(axis=1, ddof=1)
    covered = np.mean((mean - z * std <= 0.0) & (0.0 <= mean + z * std))
    assert covered >= 0.90
    # same computation through the public function, spot-checked
    band = experimental_band(draws[0], 0.05)
    assert band.lower == pytest.approx(mean[0] - z * std[0])
    assert band.upper == pytest.approx(mean[0] + z * std[0])


def test_theoretical_band_properties():
    rng = np.random.default_rng(14)
    psd = white_psd(rng)
    band = theoretical_band(psd, 0.05)
    assert np.all(band.lower <= band.upper)
    zero = psd_like(psd, np.zeros_like(psd.values))
    zb = theoretical_band(zero, 0.05)
    assert np.array_equal(zb.lower, zb.upper)
    assert np.array_equal(zb.lower, np.zeros_like(psd.values))
    # chi-square concentration: enormous K pinches the band onto the estimate
    big = PsdEstimate(values=psd.values, freq_grid=psd.freq_grid,
                      config=psd.config, k_windows=10_000)
    nb = theoretical_band(big, 0.05)
    assert np.all(nb.upper - nb.lower <= 0.1 * np.maximum(psd.values, 1e-300))


def test_theoretical_band_matches_quadrature_oracle():
    rng = np.random.default_rng(15)
    psd = white_psd(rng, k=9)
    band = theoretical_band(psd, 0.05)
    d = 2 * 9
    q_lo = oc.quantile_by_bisection(lambda x: oc.chi2_cdf_quad(x, d), 0.025, 10.0)
    q_hi = oc.quantile_by_bisection(lambda x: oc.chi2_cdf_quad(x, d), 0.975, 10.0)
    assert np.allclose(band.lower, psd.values * d / q_hi, rtol=1e-6)
    assert np.allclose(band.upper, psd.values * d / q_lo, rtol=1e-6)


def test_alpha_one_collapses_thresholds_and_bands():
    # at alpha = 1 the critical points are the medians: the z threshold is 0
    # and both bands shrink to a single curve
    rng = np.random.default_rng(16)
    ens = BaselineEnsemble.from_psds([white_psd(rng) for _ in range(6)])
    series = z_statistic(ens, white_psd(rng), 1.0)
    assert series.upper_threshold == 0.0
    curves = [rng.normal(size=8) for _ in range(5)]
    band = experimental_band(curves, 1.0)
    mean = np.mean(curves, axis=0)
    assert np.array_equal(band.lower, mean) and np.array_equal(band.upper, mean)
    theo = theoretical_band(white_psd(rng), 1.0)
    assert np.array_equal(theo.lower, theo.upper)


# ---------------------------------------------------------------------------
# every check and message, and byte equality with the call-by-call oracles
# ---------------------------------------------------------------------------

def test_from_psds_checks_name_their_rule():
    rng = np.random.default_rng(17)
    a = white_psd(rng)
    with pytest.raises(ValueError, match="ensemble needs at least one PSD estimate"):
        BaselineEnsemble.from_psds([])
    x = rng.normal(size=288)
    others = (
        welch_psd(Signal(x, 2.0 * FS), CFG),                                     # grid
        welch_psd(Signal(x, FS), WelchConfig(32, 0.0, 32, "rectangular")),      # config
        white_psd(rng, k=5),                                                     # K
    )
    for other in others:
        with pytest.raises(ValueError, match="all ensemble members must share grid, config and K"):
            BaselineEnsemble.from_psds([a, white_psd(rng), other])


def test_ensemble_constructor_refuses_members_off_the_grid():
    grid = CFG.freq_grid(FS)
    for members in (np.ones(grid.size), np.ones((0, grid.size)),
                    np.ones((3, grid.size - 1)), np.ones((3, grid.size + 1))):
        with pytest.raises(ValueError, match="ensemble members must be one or more rows of "
                                             f"the grid's {grid.size} bins, got shape"):
            BaselineEnsemble(members=members, freq_grid=grid, config=CFG, k_windows=9)
    ens = BaselineEnsemble(members=np.ones((3, grid.size)), freq_grid=grid, config=CFG,
                           k_windows=9)
    assert ens.m == 3 and not ens.var_psd.any()
    # fm and z check an unknown PSD against the ensemble's own grid, config and K
    rng = np.random.default_rng(19)
    x = rng.normal(size=288)
    for other, message in (
            (welch_psd(Signal(x, 2.0 * FS), CFG), "must share frequency grid and config"),
            (welch_psd(Signal(x, FS), WelchConfig(32, 0.0, 32, "rectangular")),
             "must share frequency grid and config"),
            (white_psd(rng, k=5), "window counts differ: baseline K=9, unknown K=5")):
        for stat in (fm_statistic, z_statistic):
            with pytest.raises(ValueError, match=message):
                stat(ens, other, 0.05)


def test_scalar_detector_checks_name_their_rule():
    rng = np.random.default_rng(18)
    members = [white_psd(rng) for _ in range(4)]
    ens = BaselineEnsemble.from_psds(members)
    dead = members[1].values.copy()
    dead[[4, 6]] = 0.0
    unknown = psd_like(members[1], dead)
    f4 = ens.freq_grid[4]
    message = f"unknown PSD is zero inside the verdict band at {f4:g} Hz"
    for series in (lambda: f_statistic(members[0], unknown, 0.05),
                   lambda: fm_statistic(ens, unknown, 0.05, (f4, ens.freq_grid[9]))):
        with pytest.raises(ValueError, match=re.escape(message)):
            series()
    with pytest.raises(ValueError, match="z_statistic needs at least 2 baseline PSDs, got M=1"):
        z_statistic(BaselineEnsemble.from_psds(members[:1]), members[1], 0.05)

    # identical members; with M a power of 2 their mean is exact, so the variance is 0
    flat = BaselineEnsemble.from_psds([psd_like(members[0], members[0].values.copy())
                                       for _ in range(4)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="every in-band bin has zero baseline variance"):
            z_statistic(flat, members[1], 0.05)
    grid = ens.freq_grid
    expected = (f"zero baseline variance at {', '.join(f'{f:g}' for f in grid[:5])} Hz; "
                "these bins are excluded from the verdict")
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, expected)]
    assert caught[0].filename == __file__  # the warning names the caller

    values = [p.values.copy() for p in members]
    for v in values:
        v[[2, 7]] = 1.0
    partial = BaselineEnsemble.from_psds([psd_like(members[0], v) for v in values])
    message = (f"zero baseline variance at {grid[2]:g}, {grid[7]:g} Hz; "
               "these bins are excluded from the verdict")
    with pytest.warns(RuntimeWarning, match=re.escape(message)):
        series = z_statistic(partial, members[1], 0.05)
    assert series.verdict in (HEALTHY, DAMAGED)


@st.composite
def detector_cases(draw):
    """A baseline ensemble of M members and an unknown PSD on one grid, with
    zero-variance bins, zeros in the unknown and the unknown on the mean in
    some bins, a full, narrow or wide band, and alpha up to 1."""
    cfg = WelchConfig(8, 0.5, draw(st.sampled_from([8, 9, 16])), "rectangular")
    grid = cfg.freq_grid(draw(st.sampled_from([1.0, 5e5])))
    n, k, m = grid.size, draw(st.sampled_from([1, 3, 9])), draw(st.sampled_from([1, 2, 15]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = rng.exponential(1.0, n) * draw(st.sampled_from([1e-30, 1.0, 1e30]))
    members = truth * rng.chisquare(2 * k, (m, n)) / (2 * k)
    bins = st.lists(st.integers(0, n - 1), max_size=n)
    members[:, draw(bins)] = truth[0]                  # zero variance
    members[:, draw(bins)] = 0.0                       # zero variance on zero power
    unknown = truth * rng.chisquare(2 * k, n) / (2 * k)
    unknown[draw(bins)] = 0.0
    on_mean = draw(bins)
    unknown[on_mean] = members.mean(axis=0)[on_mean]
    band = draw(st.one_of(
        st.none(),
        st.integers(0, n - 1).map(lambda i: (grid[i], grid[i])),
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
            lambda ij: (grid[min(ij)], grid[max(ij)])),
    ))
    alpha = draw(st.one_of(st.sampled_from([1.0, 0.5, 0.05, 1e-6]),
                           st.floats(1e-9, 1.0, exclude_min=True)))
    psds = [PsdEstimate(values=v, freq_grid=grid, config=cfg, k_windows=k) for v in members]
    # a grid equal by value, or the very same array
    probe_grid = np.array(grid) if draw(st.booleans()) else grid
    return psds, PsdEstimate(unknown, probe_grid, cfg, k), alpha, band


def _outcome(detector, *args):
    """What a call gives back: the values' bytes, thresholds and verdict, or
    the error message; and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = detector(*args)
        except ValueError as exc:
            out = str(exc)
        else:
            if isinstance(out, tuple):
                out = (out[0].tobytes(), *out[1:])
            else:
                out = (out.values.tobytes(), out.lower_threshold, out.upper_threshold,
                       out.verdict)
    return out, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=250, deadline=None)
@given(case=detector_cases())
def test_scalar_detectors_are_byte_equal_to_the_call_by_call_oracles(case):
    psds, unknown, alpha, band = case
    ens = BaselineEnsemble.from_psds(psds)
    mean, var = oc.ensemble_moments_reference(psds)
    assert ens.mean_psd.tobytes() == mean.tobytes()
    assert (ens.var_psd is None) if var is None else (ens.var_psd.tobytes() == var.tobytes())
    for detector, oracle, baseline in ((f_statistic, oc.f_reference, psds[0]),
                                       (fm_statistic, oc.fm_reference, ens),
                                       (z_statistic, oc.z_reference, ens)):
        expected = _outcome(oracle, baseline if detector is f_statistic else psds,
                            unknown, alpha, band)
        assert _outcome(detector, baseline, unknown, alpha, band) == expected, detector
