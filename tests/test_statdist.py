import math

import numpy as np
import pytest

import oracles as oc
from gwdetect.statdist import (
    _f_tails,
    _normal_two_sided,
    chi2_cdf,
    chi2_quantile,
    f_cdf,
    f_quantile,
    normal_cdf,
    normal_quantile,
    validate_alpha,
)


def test_normal_trivials():
    assert normal_cdf(0.0) == 0.5
    assert normal_quantile(0.5) == 0.0
    for p in (0.6, 0.9, 0.999, 0.1234):
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-12)


def test_normal_quantile_reference_value():
    # checked against direct quadrature of the density + bisection
    assert normal_quantile(0.975) == pytest.approx(1.9599640, abs=1e-6)
    assert normal_quantile(0.975) == pytest.approx(oc.normal_quantile_quad(0.975), rel=1e-9)


def test_normal_roundtrip_dense():
    # The lower tail round-trips to full precision.  Above z ~ 5.5 the CDF
    # output itself cannot represent the tail better than half an ulp of 1,
    # which caps any inverse at ulp(1)/(2*pdf(z)); assert that sharp bound.
    for z in np.linspace(-6.0, 5.5, 116):
        assert normal_quantile(normal_cdf(z)) == pytest.approx(z, abs=1e-9)
    for z in np.linspace(5.5, 6.0, 11):
        limit = 2.0**-53 / (math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi))
        assert normal_quantile(normal_cdf(z)) == pytest.approx(z, abs=limit + 1e-12)


def test_quantiles_where_the_normal_density_underflows():
    # far in the lower tail the Newton step's density underflows to 0 on the
    # way; the bracket's midpoint takes the step's place there
    ps = (1e-150, 1e-200, 1e-250, 1e-300, 1e-320, 5e-324)
    zs = [normal_quantile(p) for p in ps]
    assert all(math.isfinite(z) for z in zs) and zs == sorted(zs, reverse=True)
    assert normal_cdf(normal_quantile(1e-300)) == pytest.approx(1e-300, rel=1e-9)
    assert chi2_cdf(chi2_quantile(1e-300, 18), 18) == pytest.approx(1e-300, rel=1e-9)


def test_chi2_trivials():
    for d in (1, 2, 7, 100):
        assert chi2_cdf(0.0, d) == 0.0
        assert chi2_cdf(-3.0, d) == 0.0
    # exponential median in closed form
    assert chi2_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_chi2_quantile_vs_quadrature_oracle():
    got = chi2_quantile(0.95, 18)
    want = oc.quantile_by_bisection(lambda x: oc.chi2_cdf_quad(x, 18), 0.95, 20.0)
    assert got == pytest.approx(want, rel=1e-6)


def test_chi2_roundtrip_up_to_1e4():
    rng = np.random.default_rng(42)
    for _ in range(60):
        d = int(rng.integers(1, 10_001))
        p = float(rng.uniform(0.001, 0.999))
        x = chi2_quantile(p, d)
        assert chi2_cdf(x, d) == pytest.approx(p, rel=1e-8, abs=1e-10)


def test_f_trivials():
    for d in (2, 9, 18, 44):
        assert f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-12)
        for p in (0.9, 0.975, 0.6):
            assert f_quantile(p, d, d) * f_quantile(1.0 - p, d, d) == pytest.approx(1.0, rel=1e-10)
    assert f_cdf(0.0, 3, 5) == 0.0


def test_f_quantile_vs_quadrature_oracle():
    got = f_quantile(0.975, 18, 18)
    want = oc.quantile_by_bisection(lambda x: oc.f_cdf_quad(x, 18, 18), 0.975, 2.0)
    assert got == pytest.approx(want, rel=1e-6)


def test_f_roundtrip_randomized():
    rng = np.random.default_rng(7)
    dofs = [(18, 18), (270, 18), (6360, 18), (2, 2), (1, 5)]
    dofs += [(int(rng.integers(1, 500)), int(rng.integers(1, 500))) for _ in range(40)]
    for d1, d2 in dofs:
        p = float(rng.uniform(0.001, 0.999))
        x = f_quantile(p, d1, d2)
        assert f_cdf(x, d1, d2) == pytest.approx(p, rel=1e-8, abs=1e-10)


def test_cdf_monotone_on_grid():
    xs = np.linspace(0.0, 60.0, 300)
    for d in (1, 4, 18):
        vals = [chi2_cdf(x, d) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    fx = [f_cdf(x, 9, 14) for x in np.linspace(0.0, 20.0, 200)]
    assert all(b >= a for a, b in zip(fx, fx[1:]))
    zs = [normal_cdf(z) for z in np.linspace(-8, 8, 200)]
    assert all(b >= a for a, b in zip(zs, zs[1:]))


def test_quantile_monotone_in_p():
    ps = np.linspace(0.01, 0.99, 50)
    for q in (lambda p: normal_quantile(p),
              lambda p: chi2_quantile(p, 18),
              lambda p: f_quantile(p, 270, 18)):
        vals = [q(p) for p in ps]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_f_converges_to_scaled_chi2():
    # with a huge second dof, the ratio distribution collapses onto chi2(d1)/d1
    d1 = 18
    want = chi2_quantile(0.95, d1) / d1
    got = f_quantile(0.95, d1, 100_000)
    assert got == pytest.approx(want, rel=1e-3)


def test_argument_validation():
    for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            normal_quantile(bad)
    with pytest.raises(ValueError):
        chi2_quantile(0.5, 0)
    with pytest.raises(ValueError):
        chi2_quantile(0.5, 2.5)
    with pytest.raises(ValueError):
        f_quantile(0.5, 3, -1)
    with pytest.raises(ValueError):
        f_cdf(float("nan"), 3, 3)


def test_validate_alpha_bounds():
    assert validate_alpha(0.05) == 0.05
    assert validate_alpha(1.0) == 1.0  # degenerate always-reject level for ROC sweeps
    for bad in (0.0, -1e-9, 1.0000001, float("nan")):
        with pytest.raises(ValueError):
            validate_alpha(bad)


@pytest.mark.parametrize("d1, d2", [(2, 2), (18, 18), (30, 30), (270, 18), (1440, 18)])
def test_f_tails_match_scalar_cdf_and_quadrature(d1, d2):
    # P(F(d1, d2) > x) = P(F(d2, d1) < 1/x): each tail against a lower-tail reference
    xs = np.array([f_quantile(p, d1, d2) for p in (1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1 - 1e-6)])
    lower, upper = _f_tails(xs, d1, d2)
    for x, lo, up in zip(xs.tolist(), lower.tolist(), upper.tolist()):
        for want_lo, want_up in ((f_cdf(x, d1, d2), f_cdf(1.0 / x, d2, d1)),
                                 (oc.f_cdf_quad(x, d1, d2), oc.f_cdf_quad(1.0 / x, d2, d1))):
            assert lo == pytest.approx(want_lo, rel=1e-11, abs=0.0), (x, "lower")
            assert up == pytest.approx(want_up, rel=1e-11, abs=0.0), (x, "upper")


def test_f_tails_keep_the_deep_upper_tail():
    x = 1.0 / f_quantile(1e-30, 18, 18)  # P(F > x) = 1e-30: F(d, d) and 1/F share a law
    lower, upper = _f_tails(np.array([x]), 18, 18)
    assert 1.0 - f_cdf(x, 18, 18) == 0.0
    assert upper[0] > 0.0
    assert upper[0] == pytest.approx(1e-30, rel=1e-11)
    assert lower[0] == 1.0


def test_f_tails_edges_and_even_dofs():
    lower, upper = _f_tails(np.array([0.0, np.inf]), 18, 270)
    assert lower.tolist() == [0.0, 1.0] and upper.tolist() == [1.0, 0.0]
    assert [t.shape for t in _f_tails(np.empty(0), 2, 2)] == [(0,), (0,)]
    xs = np.linspace(0.05, 8.0, 2000)  # rows enough for several chunks
    assert _f_tails(xs, 18, 18)[0] == pytest.approx([f_cdf(x, 18, 18) for x in xs.tolist()],
                                                    rel=1e-11, abs=0.0)
    for d1, d2 in ((3, 4), (4, 3), (0, 2)):
        with pytest.raises(ValueError):
            _f_tails(np.ones(2), d1, d2)


def test_normal_two_sided_tail():
    zs = np.linspace(0.0, 6.0, 61)
    want = [2.0 * (1.0 - normal_cdf(z)) for z in zs.tolist()]
    assert _normal_two_sided(zs) == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert _normal_two_sided(np.array([0.0, 40.0])).tolist() == [1.0, 0.0]
