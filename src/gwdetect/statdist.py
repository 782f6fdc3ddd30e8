"""Distribution functions behind the decision rules.

Scalar CDFs and quantiles (inverse CDFs) for the standard Normal, chi-square
and F distributions.  The chi-square and F CDFs go through the regularized
incomplete gamma/beta functions, evaluated by power series where they converge
fast and by Lentz-style continued fractions elsewhere.  Quantiles invert the
CDFs with a bracketed, safeguarded Newton iteration, so they stay inside the
support and remain monotone in the probability argument.  Scoring's p-values
(``detectors._p_value``) come from two array tails, ``_f_tails`` (even degrees
of freedom) and ``_normal_two_sided``; the scalar functions are their reference.

All functions are pure and deterministic; quantiles are memoised because the
scalar detectors ask for the same critical points over and over.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "validate_alpha",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "chi2_cdf",
    "chi2_quantile",
    "f_cdf",
    "f_quantile",
]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_MAX_ITER = 20_000
_CF_TINY = 1e-300
_TAIL_CHUNK = 1 << 14  # elements per temporary of the binomial terms (128 kB)


def validate_alpha(alpha) -> float:
    """Validate a false-alarm probability.

    Accepts 0 < alpha <= 1.  alpha = 1 is the degenerate always-reject level;
    it is needed so ROC sweeps can reach the (1, 1) corner.
    """
    a = float(alpha)
    if math.isnan(a) or not 0.0 < a <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    return a


def _check_prob(p) -> float:
    p = float(p)
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p!r}")
    return p


def _check_dof(d, name: str = "d") -> int:
    if isinstance(d, float) and not d.is_integer():
        raise ValueError(f"{name} must be an integer, got {d!r}")
    d = int(d)
    if d < 1:
        raise ValueError(f"{name} must be >= 1, got {d}")
    return d


# ---------------------------------------------------------------------------
# standard Normal
# ---------------------------------------------------------------------------

def normal_pdf(z: float) -> float:
    """Standard Normal density."""
    z = float(z)
    return math.exp(-0.5 * z * z - _LOG_SQRT_2PI)


def normal_cdf(z: float) -> float:
    """Standard Normal CDF, accurate in both tails (via erfc)."""
    return 0.5 * math.erfc(-float(z) / _SQRT2)


@lru_cache(maxsize=None)
def normal_quantile(p: float) -> float:
    """Inverse standard Normal CDF.

    Seeded with a low-order rational approximation, then polished by a
    bracket-safeguarded Newton iteration on ``normal_cdf``.  The solve runs on
    the lower-tail side, where the CDF keeps full relative precision, so deep
    quantiles stay accurate.
    """
    p = _check_prob(p)
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -normal_quantile(1.0 - p)
    # 0 < p < 0.5: solve cdf(-y) = p for y > 0
    t = math.sqrt(-2.0 * math.log(p))
    y = t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t)
    y = max(y, 1e-8)
    lo, hi = 0.0, y
    while normal_cdf(-hi) > p:  # bracket: cdf(-lo) >= p >= cdf(-hi)
        lo = hi
        hi *= 2.0
    for _ in range(100):
        f = normal_cdf(-y) - p
        if f >= 0.0:
            lo = y
        else:
            hi = y
        den = normal_pdf(y)  # 0 once it underflows, far out in the tail
        yn = y + f / den if den > 0.0 else 0.5 * (lo + hi)
        if not lo < yn < hi:
            yn = 0.5 * (lo + hi)
        if abs(yn - y) <= 1e-16 * max(1.0, y):
            y = yn
            break
        y = yn
    return -y


# ---------------------------------------------------------------------------
# regularized incomplete gamma (for the chi-square CDF)
# ---------------------------------------------------------------------------

def _gammainc_series(a: float, x: float) -> float:
    # lower-tail series, converges for x < a + 1
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gammainc_upper_cf(a: float, x: float) -> float:
    # upper-tail continued fraction (modified Lentz), converges for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _CF_TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _CF_TINY
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = b + an / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def _gammainc_p(a: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        return min(_gammainc_series(a, x), 1.0)
    return max(1.0 - _gammainc_upper_cf(a, x), 0.0)


def chi2_cdf(x: float, d) -> float:
    """Chi-square CDF with ``d`` degrees of freedom."""
    d = _check_dof(d)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= 0.0:
        return 0.0
    return _gammainc_p(0.5 * d, 0.5 * x)


def _chi2_pdf(x: float, d: int) -> float:
    if x <= 0.0:
        return 0.0
    a = 0.5 * d
    return math.exp((a - 1.0) * math.log(x) - 0.5 * x - math.lgamma(a) - a * math.log(2.0))


@lru_cache(maxsize=None)
def chi2_quantile(p: float, d) -> float:
    """Inverse chi-square CDF.

    Wilson-Hilferty seed, then bracketed Newton refinement against the exact
    CDF; stable through very large degrees of freedom.
    """
    p = _check_prob(p)
    d = _check_dof(d)
    z = normal_quantile(p)
    t = 2.0 / (9.0 * d)
    c = 1.0 - t + z * math.sqrt(t)
    if c > 0.0:
        seed = d * c * c * c
    else:
        # deep lower tail of a small-dof chi-square; invert the leading term
        a = 0.5 * d
        seed = 2.0 * math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    return _invert_positive_cdf(lambda x: chi2_cdf(x, d), lambda x: _chi2_pdf(x, d), p, seed)


# ---------------------------------------------------------------------------
# regularized incomplete beta (for the F CDF)
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the incomplete beta (modified Lentz)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    lfront = (a * math.log(x) + b * math.log1p(-x)
              - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    front = math.exp(lfront)
    if x < (a + 1.0) / (a + b + 2.0):
        return min(front * _betacf(a, b, x) / a, 1.0)
    return max(1.0 - front * _betacf(b, a, 1.0 - x) / b, 0.0)


def f_cdf(x: float, d1, d2) -> float:
    """F-distribution CDF with ``(d1, d2)`` degrees of freedom."""
    d1 = _check_dof(d1, "d1")
    d2 = _check_dof(d2, "d2")
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= 0.0:
        return 0.0
    y = d1 * x / (d1 * x + d2)
    return _betainc(0.5 * d1, 0.5 * d2, y)


def _f_pdf(x: float, d1: int, d2: int) -> float:
    if x <= 0.0:
        return 0.0
    a = 0.5 * d1
    b = 0.5 * d2
    lpdf = (a * math.log(d1) + b * math.log(d2) + (a - 1.0) * math.log(x)
            - (a + b) * math.log(d2 + d1 * x)
            - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    return math.exp(lpdf)


@lru_cache(maxsize=None)
def f_quantile(p: float, d1, d2) -> float:
    """Inverse F-distribution CDF (bracketed Newton on the exact CDF)."""
    p = _check_prob(p)
    d1 = _check_dof(d1, "d1")
    d2 = _check_dof(d2, "d2")
    return _invert_positive_cdf(
        lambda x: f_cdf(x, d1, d2), lambda x: _f_pdf(x, d1, d2), p, 1.0
    )


def _f_tails(x, d1: int, d2: int):
    """Lower and upper tail, ``(P(F <= x), P(F > x))``, of F(d1, d2) at each
    element of the 1-D array ``x``, for even ``d1 = 2a`` and ``d2 = 2b``.

    With ``n = a + b - 1`` and ``y = d1 x / (d1 x + d2)`` the lower tail is
    ``P(Bin(n, y) >= a)`` and the upper tail ``P(Bin(n, y) <= a - 1)``.  Both
    are sums of positive binomial terms, taken in log space, so the upper tail
    keeps its relative precision where ``1 - f_cdf`` rounds to 0.
    """
    if d1 < 2 or d2 < 2 or d1 % 2 or d2 % 2:
        raise ValueError(f"degrees of freedom must be even and >= 2, got ({d1}, {d2})")
    a, n = d1 // 2, (d1 + d2) // 2 - 1
    k = np.arange(n + 1)
    log_choose = math.lgamma(n + 1) - np.array([math.lgamma(j + 1) + math.lgamma(n - j + 1)
                                                for j in range(n + 1)])
    x = np.asarray(x, dtype=float)
    lower, upper = np.empty(x.size), np.empty(x.size)
    step = max(1, _TAIL_CHUNK // k.size)
    for i in range(0, x.size, step):
        xs = x[i:i + step, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_terms = (log_choose - k * np.log1p(d2 / (d1 * xs))
                         - (n - k) * np.log1p(d1 * xs / d2))
        # 0 * log(0) is 0: the one term that holds all the mass at x = 0 or inf
        terms = np.exp(np.where(np.isnan(log_terms), 0.0, log_terms))
        lower[i:i + step], upper[i:i + step] = terms[:, a:].sum(axis=1), terms[:, :a].sum(axis=1)
    return lower, upper


def _normal_two_sided(z):
    """``P(|N(0, 1)| > z)`` at each element of the 1-D array ``z``: ``erfc(z / sqrt(2))``."""
    return np.array([math.erfc(v / _SQRT2) for v in np.asarray(z, dtype=float).tolist()])


# ---------------------------------------------------------------------------
# generic inversion on (0, inf)
# ---------------------------------------------------------------------------

def _invert_positive_cdf(cdf, pdf, p: float, seed: float) -> float:
    """Solve cdf(x) = p for x > 0 by safeguarded Newton inside a bracket."""
    x = seed if math.isfinite(seed) and seed > 0.0 else 1.0
    lo = 0.0
    hi = x
    fhi = cdf(hi)
    grow = 0
    while fhi < p:
        lo = hi
        hi *= 4.0
        fhi = cdf(hi)
        grow += 1
        if grow > 600 or hi > 1e300:
            raise ArithmeticError("quantile bracket expansion failed")
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(200):
        f = cdf(x) - p
        if f >= 0.0:
            hi = x
        else:
            lo = x
        den = pdf(x)
        if den > 0.0 and math.isfinite(den):
            xn = x - f / den
        else:
            xn = 0.5 * (lo + hi)
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-15 * max(abs(xn), 1e-300):
            x = xn
            break
        x = xn
    return x
