"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity through a route the library never takes:
direct summation for window normalization, an explicit DFT-matrix
periodogram average for the PSD, a per-call strided-view Welch estimate
(what the cached Welch plan must reproduce byte for byte), Gauss-Legendre
quadrature of the densities plus bisection for quantiles, a rank-count AUC,
a per-case decision from critical points where the library compares
p-values, the ``f``/``fm``/``z`` detectors and ensemble moments written
out call by call, with every comparison over a boolean mask (what the
shared statistic and its min/max verdicts must reproduce byte for byte),
and a curve CSV formatted one row at a time (what the one-``%`` curve
template must reproduce byte for byte).
Keep them slow and obvious.
"""

import math
import warnings
from functools import lru_cache

import numpy as np

from gwdetect.detectors import _critical_points
from gwdetect.spectral import make_window
from gwdetect.statdist import f_quantile, normal_quantile, validate_alpha


# ---------------------------------------------------------------------------
# window normalization by direct summation
# ---------------------------------------------------------------------------

def window_by_loop(kind: str, length: int):
    w = np.empty(length)
    for t in range(length):
        if kind == "hamming":
            w[t] = 0.54 - 0.46 * math.cos(2.0 * math.pi * t / (length - 1))
        elif kind == "bartlett":
            w[t] = 1.0 - abs(2.0 * t / (length - 1) - 1.0)
        elif kind == "rectangular":
            w[t] = 1.0
        else:
            raise ValueError(kind)
    u = sum(w[t] * w[t] for t in range(length)) / length
    return w, u


# ---------------------------------------------------------------------------
# brute-force averaged windowed periodogram (direct DFT, no FFT)
# ---------------------------------------------------------------------------

def brute_force_welch(x, fs: float, seg_len: int, step: int, nfft: int,
                      kind: str, detrend: bool) -> np.ndarray:
    """One-sided PSD via an explicit loop over windows and a direct DFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    k = (n - seg_len) // step + 1
    w, u = window_by_loop(kind, seg_len)
    if detrend:
        x = x - sum(x) / n
    dft = np.exp(-2j * math.pi * np.outer(np.arange(nfft), np.arange(seg_len)) / nfft)
    acc = np.zeros(nfft)
    for i in range(k):
        seg = x[i * step:i * step + seg_len] * w
        acc += np.abs(dft @ seg) ** 2
    two_sided = acc / (k * seg_len * u * fs)
    half = two_sided[: nfft // 2 + 1].copy()
    if nfft % 2 == 0:
        half[1:-1] *= 2.0
    else:
        half[1:] *= 2.0
    return half


def welch_reference(signal, config):
    """``(values, freq_grid, k)`` of ``welch_psd(signal, config)``, with all of
    its set-up rebuilt on every call: a fresh taper, frames cut from a
    ``sliding_window_view`` of the record, and a fresh grid.  The arithmetic
    is the library's, so the results must match byte for byte."""
    seg = signal.samples
    L = config.segment_length
    k = config.window_count(seg.size)
    w, u = make_window(config.window_kind, L)
    if config.detrend_mean:
        seg = seg - seg.mean()
    offsets = np.arange(k) * config.step
    frames = np.lib.stride_tricks.sliding_window_view(seg, L)[offsets] * w
    spec = np.fft.rfft(frames, n=config.nfft, axis=1)
    values = (np.abs(spec) ** 2).sum(axis=0) / (k * L * u * signal.sample_rate)
    if config.nfft % 2 == 0:
        values[1:-1] *= 2.0
    else:
        values[1:] *= 2.0
    grid = np.arange(config.nfft // 2 + 1) * (signal.sample_rate / config.nfft)
    return values, grid, k


# ---------------------------------------------------------------------------
# scalar detectors, one call at a time
# ---------------------------------------------------------------------------

def ensemble_moments_reference(psds):
    """``(mean, var)`` of ``BaselineEnsemble.from_psds(psds)``: the stacked
    members' mean, and their unbiased variance (``None`` for one member, 0
    where every member holds the same value)."""
    stack = np.stack([p.values for p in psds])
    if len(psds) < 2:
        return stack.mean(axis=0), None
    equal = (stack == stack[0]).all(axis=0)
    return stack.mean(axis=0), np.where(equal, 0.0, stack.var(axis=0, ddof=1))


def _band_mask_reference(freqs, band):
    if band is None:
        return np.ones(freqs.size, dtype=bool)
    f_lo, f_hi = float(band[0]), float(band[1])
    if f_hi < f_lo:
        raise ValueError(f"band upper edge {f_hi} is below lower edge {f_lo}")
    mask = (freqs >= f_lo) & (freqs <= f_hi)
    if not mask.any():
        raise ValueError(f"band ({f_lo}, {f_hi}) Hz contains no grid frequency")
    return mask


def _ratio_reference(numer, unknown, alpha, band, d1, d2):
    alpha = validate_alpha(alpha)
    freqs = unknown.freq_grid
    mask = _band_mask_reference(freqs, band)
    denom = unknown.values
    if (denom[mask] == 0.0).any():
        bad = freqs[mask & (denom == 0.0)]
        raise ValueError(f"unknown PSD is zero inside the verdict band at {bad[0]:g} Hz")
    with np.errstate(divide="ignore", invalid="ignore"):
        values = numer / denom
    lower = f_quantile(alpha / 2.0, d1, d2)
    upper = 1.0 / f_quantile(alpha / 2.0, d2, d1)  # from the lower tail of F(d2, d1)
    in_band = values[mask]
    damaged = bool((in_band < lower).any() or (in_band > upper).any())
    return values, lower, upper, "damaged" if damaged else "healthy"


def f_reference(baseline_psd, unknown_psd, alpha, band=None):
    """``(values, lower, upper, verdict)`` of ``f_statistic``, for inputs
    that share grid, config and K."""
    d = 2 * baseline_psd.k_windows
    return _ratio_reference(baseline_psd.values, unknown_psd, alpha, band, d, d)


def fm_reference(psds, unknown_psd, alpha, band=None):
    """``fm_statistic`` of ``unknown_psd`` against the ensemble of ``psds``."""
    d = 2 * psds[0].k_windows
    mean, _ = ensemble_moments_reference(psds)
    return _ratio_reference(mean, unknown_psd, alpha, band, d * len(psds), d)


def z_reference(psds, unknown_psd, alpha, band=None):
    """``z_statistic`` of ``unknown_psd`` against the ensemble of ``psds``,
    warning as it does about in-band zero-variance bins."""
    alpha = validate_alpha(alpha)
    if len(psds) < 2:
        raise ValueError(f"z_statistic needs at least 2 baseline PSDs, got M={len(psds)}")
    freqs = unknown_psd.freq_grid
    mask = _band_mask_reference(freqs, band)
    mean, var = ensemble_moments_reference(psds)
    num = np.abs(mean - unknown_psd.values)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = num / np.sqrt(2.0 * var)
    values = np.where((var == 0.0) & (num == 0.0), 0.0, values)
    dead = mask & (var == 0.0)
    if dead.any():
        warnings.warn(
            "zero baseline variance at "
            f"{', '.join(f'{f:g}' for f in freqs[dead][:5])} Hz; "
            "these bins are excluded from the verdict",
            RuntimeWarning,
            stacklevel=2,
        )
        mask = mask & ~dead
        if not mask.any():
            raise ValueError("every in-band bin has zero baseline variance")
    upper = abs(normal_quantile(alpha / 2.0))  # from the lower tail
    damaged = bool((values[mask] > upper).any())
    return values, 0.0, upper, "damaged" if damaged else "healthy"


# ---------------------------------------------------------------------------
# quadrature CDFs (Gauss-Legendre with interval doubling) + bisection
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl_nodes(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights

def _integrate(f, a: float, b: float, tol: float = 1e-13) -> float:
    """Composite Gauss-Legendre integral of a smooth f over [a, b]."""
    if b <= a:
        return 0.0
    nodes, weights = _gl_nodes(40)
    prev = None
    for segments in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
        edges = np.linspace(a, b, segments + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        total = float(np.sum(half[:, None] * weights[None, :] * f(pts)))
        if prev is not None and abs(total - prev) <= tol * max(abs(total), 1e-300):
            return total
        prev = total
    return prev


def normal_cdf_quad(z: float) -> float:
    def pdf(t):
        return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    if z >= 0:
        return 0.5 + _integrate(pdf, 0.0, z)
    return 0.5 - _integrate(pdf, 0.0, -z)


def chi2_cdf_quad(x: float, d: int) -> float:
    """Chi-square CDF by quadrature under the substitution x = s**2."""
    if x <= 0.0:
        return 0.0
    a = 0.5 * d
    lognorm = a * math.log(2.0) + math.lgamma(a)

    def g(s):
        with np.errstate(divide="ignore"):
            lg = np.where(s > 0, (d - 1) * np.log(np.maximum(s, 1e-300)), -np.inf)
        return 2.0 * np.exp(lg - 0.5 * s * s - lognorm)

    return min(_integrate(g, 0.0, math.sqrt(x)), 1.0)


def f_cdf_quad(x: float, d1: int, d2: int) -> float:
    """F CDF by quadrature under the substitution x = s**2."""
    if x <= 0.0:
        return 0.0
    a, b = 0.5 * d1, 0.5 * d2
    lognorm = (a * math.log(d1 / d2) - (math.lgamma(a) + math.lgamma(b)
                                        - math.lgamma(a + b)))

    def g(s):
        with np.errstate(divide="ignore"):
            logs = np.where(s > 0, np.log(np.maximum(s, 1e-300)), -np.inf)
        lg = (lognorm + (d1 - 1) * logs
              - (a + b) * np.log1p((d1 / d2) * s * s))
        return 2.0 * np.exp(lg)

    return min(_integrate(g, 0.0, math.sqrt(x)), 1.0)


def quantile_by_bisection(cdf, p: float, hi: float = 1.0) -> float:
    """Invert a monotone CDF on (0, inf) by pure bisection."""
    lo = 0.0
    grow = 0
    while cdf(hi) < p:
        lo = hi
        hi *= 2.0
        grow += 1
        if grow > 400:
            raise ArithmeticError("bisection bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1e-300):
            break
    return 0.5 * (lo + hi)


def normal_quantile_quad(p: float) -> float:
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -normal_quantile_quad(1.0 - p)
    lo, hi = 0.0, 1.0
    while normal_cdf_quad(hi) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if normal_cdf_quad(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1e-12):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# empirical-distribution helpers
# ---------------------------------------------------------------------------

def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a given CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    f = np.array([cdf(x) for x in xs])
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_critical_value(n: int, significance: float = 0.01) -> float:
    """Asymptotic KS critical value c(a) / sqrt(n)."""
    return math.sqrt(-0.5 * math.log(significance / 2.0)) / math.sqrt(n)


# ---------------------------------------------------------------------------
# decisions from critical points, one case at a time
# ---------------------------------------------------------------------------

def critical_point_damaged(table, alpha: float) -> list:
    """Each case of a ``CaseTable`` decided at ``alpha`` from its columns and
    the critical points ``detect`` prints in its ``thresholds_*`` files:
    ``f``/``fm`` flag ``stat_lo < lo or stat_hi > hi``, ``z`` flags
    ``stat_hi > hi``, and a damage index flags
    ``|stat_hi - center| > hi * spread``."""
    columns = (getattr(table, key).tolist()
               for key in ("stat_lo", "stat_hi", "dof1", "dof2", "center", "spread"))
    flags = []
    for stat_lo, stat_hi, dof1, dof2, center, spread in zip(*columns):
        lo, hi = _critical_points(table.metric, float(alpha), dof1, dof2)
        if table.metric in ("f", "fm"):
            flags.append(stat_lo < lo or stat_hi > hi)
        elif table.metric == "z":
            flags.append(stat_hi > hi)
        else:
            flags.append(abs(stat_hi - center) > hi * spread)
    return flags


# ---------------------------------------------------------------------------
# curve CSV text, one row at a time
# ---------------------------------------------------------------------------

def curve_text_by_row(header: str, freqs, *columns) -> str:
    """``header``, then per frequency its shortest round-trip decimal and
    each column's value for the row at ``%.12g``.  Rows are cut to the
    shortest column, as ``zip`` cuts them."""
    freq_col = [repr(float(f)) for f in np.asarray(freqs).tolist()]
    row = "%s" + ",%.12g" * len(columns)
    cells = [c.tolist() for c in columns]
    return "\n".join([header, *(row % r for r in zip(freq_col, *cells))]) + "\n"
