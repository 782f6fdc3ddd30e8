"""Per-frequency test statistics, reference damage indices and healthy bands.

Three PSD-based statistics with binary decision rules:

* ``f_statistic``  -- ratio of one baseline estimate to the unknown estimate,
  tested two-sided against its sampling distribution with (2K, 2K) degrees of
  freedom;
* ``fm_statistic`` -- ratio of the M-baseline ensemble mean to the unknown
  estimate, tested against (2KM, 2K);
* ``z_statistic``  -- absolute deviation of the unknown estimate from the
  ensemble mean, normalized by the experimental per-frequency scatter and
  tested against the standard Normal critical point.

A verdict is "damaged" as soon as any frequency inside the verdict band
violates its bounds, so restrict the band to where the actuation actually put
energy unless you want the multiple-comparison inflation of a full-grid test.

Each rule of a metric is defined here once: its per-bin statistic, degrees of
freedom, critical points, p-value, damage-index formula and input checks.  The
scalar detectors are thin builders over them (``f``/``fm``/``z`` over one
``_series``), and ``pipeline`` scores whole sets of cases with the same rules.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .spectral import PsdEstimate, Signal
from .statdist import (_f_tails, _normal_two_sided, chi2_quantile, f_quantile,
                       normal_quantile, validate_alpha)

__all__ = [
    "HEALTHY",
    "DAMAGED",
    "BaselineEnsemble",
    "StatSeries",
    "ConfidenceBand",
    "f_statistic",
    "fm_statistic",
    "z_statistic",
    "janapati_di",
    "qiu_di",
    "experimental_band",
    "theoretical_band",
]

HEALTHY = "healthy"
DAMAGED = "damaged"


@dataclass(frozen=True, eq=False)
class BaselineEnsemble:
    """M healthy PSD estimates on a shared grid, with per-frequency moments.

    ``mean_psd`` is the arithmetic mean and ``var_psd`` the unbiased sample
    variance across members (``None`` when M == 1, since no scatter exists).
    """

    psds: tuple
    mean_psd: np.ndarray
    var_psd: np.ndarray

    @classmethod
    def from_psds(cls, psds) -> "BaselineEnsemble":
        psds = tuple(psds)
        if not psds:
            raise ValueError("ensemble needs at least one PSD estimate")
        first = psds[0]
        for p in psds[1:]:
            if not first.same_grid(p) or p.k_windows != first.k_windows:
                raise ValueError("all ensemble members must share grid, config and K")
        stack = np.array([p.values for p in psds])
        mean = stack.mean(axis=0)
        var = stack.var(axis=0, ddof=1) if len(psds) >= 2 else None
        return cls(psds=psds, mean_psd=mean, var_psd=var)

    @property
    def m(self) -> int:
        return len(self.psds)

    @property
    def config(self):
        return self.psds[0].config

    @property
    def freq_grid(self) -> np.ndarray:
        return self.psds[0].freq_grid

    @property
    def k_windows(self) -> int:
        return self.psds[0].k_windows

    def mean_estimate(self) -> PsdEstimate:
        """The ensemble mean wrapped as a PSD estimate (same grid and K)."""
        return PsdEstimate(values=self.mean_psd, freq_grid=self.freq_grid,
                           config=self.config, k_windows=self.k_windows)


@dataclass(frozen=True, eq=False)
class StatSeries:
    """A per-frequency statistic curve with its decision bounds and verdict."""

    kind: str
    freqs: np.ndarray
    values: np.ndarray
    lower_threshold: float
    upper_threshold: float
    band: tuple
    verdict: str


@dataclass(frozen=True, eq=False)
class ConfidenceBand:
    """Per-frequency (or per-point) lower/upper bounds at a given alpha."""

    lower: np.ndarray
    upper: np.ndarray
    kind: str  # "theoretical" | "experimental"
    alpha: float


def _band_mask(freqs: np.ndarray, band) -> np.ndarray:
    if band is None:
        return np.ones(freqs.size, dtype=bool)
    f_lo, f_hi = float(band[0]), float(band[1])
    if f_hi < f_lo:
        raise ValueError(f"band upper edge {f_hi} is below lower edge {f_lo}")
    mask = (freqs >= f_lo) & (freqs <= f_hi)
    if not np.count_nonzero(mask):
        raise ValueError(f"band ({f_lo}, {f_hi}) Hz contains no grid frequency")
    return mask


def _check_pair(baseline: PsdEstimate, unknown: PsdEstimate):
    if not baseline.same_grid(unknown):
        raise ValueError("baseline and unknown PSDs must share frequency grid and config")
    if baseline.k_windows != unknown.k_windows:
        raise ValueError(
            f"window counts differ: baseline K={baseline.k_windows}, "
            f"unknown K={unknown.k_windows}"
        )


def _statistic(metric: str, ref: np.ndarray, probe: np.ndarray, var=None) -> np.ndarray:
    """Per-bin statistic of PSD rows ``probe`` against ``ref``: the ratio, or for
    ``z`` the deviation over ``sqrt(2 * var)`` (0 where it and ``var`` are 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if metric != "z":
            return ref / probe
        num = np.abs(ref - probe)
        return np.where((var == 0.0) & (num == 0.0), 0.0, num / np.sqrt(2.0 * var))


def _dof(metric: str, k_windows: int, m: int) -> dict:
    """(2K, 2K) degrees of freedom for ``f``, (2KM, 2K) for ``fm``."""
    d = 2 * k_windows
    return {"dof1": d * m if metric == "fm" else d, "dof2": d}


def _critical_points(metric: str, alpha: float, dof1: int = None, dof2: int = None) -> tuple:
    """``(lower, upper)`` critical points at a validated alpha: two-sided F for
    ``f``/``fm``, else 0 and the Normal point (times the healthy DI spread)."""
    if metric in ("f", "fm"):
        return f_quantile(alpha / 2.0, dof1, dof2), f_quantile(1.0 - alpha / 2.0, dof1, dof2)
    return 0.0, normal_quantile(1.0 - alpha / 2.0)


def _p_value(metric: str, stat_hi, stat_lo=None, dof1=None, dof2=None, center=0.0,
             spread=1.0) -> np.ndarray:
    """Two-sided p-value of each of one set's cases, so that ``p < alpha`` is
    the metric's critical-point rule at alpha: from the F tails of ``stat_lo``
    and ``stat_hi`` for ``f``/``fm``, else from the Normal tail of the deviation of
    ``stat_hi`` from ``center`` in units of ``spread`` (``z``: 0 and 1); a
    zero spread makes p 0 off center and 1 on it."""
    if metric in ("f", "fm"):
        below, above = _f_tails(stat_lo, dof1, dof2)[0], _f_tails(stat_hi, dof1, dof2)[1]
        return np.minimum(1.0, 2.0 * np.minimum(below, above))
    dev = np.abs(stat_hi - center)
    if spread == 0.0:
        return np.where(dev > 0.0, 0.0, 1.0)
    return _normal_two_sided(dev / spread)


# Zeros in the unknown PSD or the baseline variance are looked for bin by bin
# only when the grid's minimum is not positive.  A verdict is one reduction of
# the in-band values: ``fmin``/``fmax`` skip NaN as comparisons would, and ``z``
# (never negative, lower critical point 0) needs ``fmax`` only.

def _check_probe(freqs: np.ndarray, values: np.ndarray, mask=None, rows=None) -> None:
    """Refuse an unknown PSD that is zero in the band ``mask`` (all of ``freqs``
    when ``None``): ``values`` is one PSD, or stacked rows of which ``rows``
    picks each case's unknown; the first such case names its first zero bin."""
    if np.minimum.reduce(values, axis=None) > 0.0:
        return
    zero = values == 0.0 if mask is None else mask & (values == 0.0)
    if rows is not None:
        hit = zero.any(axis=1)[rows]
        zero = zero[rows[np.argmax(hit)]] if hit.any() else hit
    if zero.any():
        raise ValueError(f"unknown PSD is zero inside the verdict band at {freqs[zero][0]:g} Hz")


def _live_bins(freqs: np.ndarray, mask: np.ndarray, var: np.ndarray, warn: bool = False):
    """The bins of ``mask`` where the baseline variance ``var`` is not zero, which
    ``z`` decides on; ``warn`` names the others to ``z_statistic``'s caller."""
    if np.minimum.reduce(var) > 0.0 or not (dead := mask & (var == 0.0)).any():
        return mask
    if warn:
        names = ", ".join(f"{f:g}" for f in freqs[dead][:5])
        warnings.warn(f"zero baseline variance at {names} Hz; these bins are excluded "
                      "from the verdict", RuntimeWarning, stacklevel=4)
    if not (live := mask & ~dead).any():
        raise ValueError("every in-band bin has zero baseline variance")
    return live


def _series(metric: str, ref: np.ndarray, unknown: PsdEstimate, alpha: float, band,
            m: int, var=None) -> StatSeries:
    """``metric`` of ``unknown`` against ``ref`` of an ``m``-member baseline at a
    validated alpha."""
    freqs, probe = unknown.freq_grid, unknown.values
    mask = _band_mask(freqs, band)
    if metric == "z":
        mask = _live_bins(freqs, mask, var, warn=True)
        lower, upper = _critical_points("z", alpha)
    else:
        _check_probe(freqs, probe, mask)
        lower, upper = _critical_points(metric, alpha, **_dof(metric, unknown.k_windows, m))
    values = _statistic(metric, ref, probe, var)
    in_band = values[mask]
    damaged = (metric != "z" and np.fmin.reduce(in_band) < lower) or np.fmax.reduce(in_band) > upper
    return StatSeries(kind=metric, freqs=freqs, values=values,
                      lower_threshold=lower, upper_threshold=upper,
                      band=band, verdict=DAMAGED if damaged else HEALTHY)


def f_statistic(baseline_psd: PsdEstimate, unknown_psd: PsdEstimate, alpha,
                band=None) -> StatSeries:
    """Single-baseline PSD ratio test.

    The per-frequency ratio baseline/unknown is compared against the
    two-sided critical points of the (2K, 2K) ratio distribution; the verdict
    is damaged if any in-band frequency falls outside them.
    """
    _check_pair(baseline_psd, unknown_psd)
    return _series("f", baseline_psd.values, unknown_psd, validate_alpha(alpha), band, 1)


def fm_statistic(baseline: BaselineEnsemble, unknown_psd: PsdEstimate, alpha,
                 band=None) -> StatSeries:
    """Ensemble-mean PSD ratio test with (2KM, 2K) degrees of freedom.

    With M == 1 this reduces exactly to :func:`f_statistic`.
    """
    _check_pair(baseline.psds[0], unknown_psd)
    return _series("fm", baseline.mean_psd, unknown_psd, validate_alpha(alpha), band, baseline.m)


def z_statistic(baseline: BaselineEnsemble, unknown_psd: PsdEstimate, alpha,
                band=None) -> StatSeries:
    """Normalized-deviation test against the experimental baseline scatter.

    ``Z = |mean - unknown| / sqrt(2 * var)`` per frequency, where ``var`` is
    the unbiased sample variance of a single baseline draw.  The verdict is
    damaged if any in-band Z exceeds the Normal ``1 - alpha/2`` critical
    point.  In-band bins with zero sample variance are excluded from the
    verdict (with a warning naming them) instead of being read as infinite
    deviations.
    """
    alpha = validate_alpha(alpha)
    _check_pair(baseline.psds[0], unknown_psd)
    if baseline.m < 2:
        raise ValueError(f"z_statistic needs at least 2 baseline PSDs, got M={baseline.m}")
    return _series("z", baseline.mean_psd, unknown_psd, alpha, band, baseline.m, baseline.var_psd)


def _as_samples(signal) -> np.ndarray:
    if isinstance(signal, Signal):
        return signal.samples
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a nonempty 1-D sequence")
    if not np.isfinite(x).all():
        raise ValueError("signal must be finite")
    return x


def _damage_index(metric: str, cross, e_ref, e_probe, sum_ref=None, sum_probe=None):
    """``janapati`` (normalized) or ``qiu`` index from the packets' cross product,
    energies and sums, floats or arrays of cases; the first case with a zero
    energy fails, naming its signal (``janapati``) or both (``qiu``)."""
    zero = (e_ref == 0.0) | (e_probe == 0.0)
    if np.count_nonzero(zero):
        if metric == "qiu":
            raise ValueError("both signals must have nonzero energy")
        which = "baseline" if np.ravel(e_ref)[np.argmax(zero)] == 0.0 else "unknown"
        raise ValueError(f"{which} signal has zero energy")
    if metric == "janapati":
        return (sum_probe - (cross / e_ref) * sum_ref) / np.sqrt(e_probe)
    return 1.0 - np.sqrt(np.minimum((cross * cross) / (e_ref * e_probe), 1.0))


def janapati_di(baseline_signal, unknown_signal, variant: str = "normalized") -> float:
    """Time-domain damage index built on signal-shape normalization.

    variant="normalized"
        Projection form: the baseline is scaled by its least-squares
        projection coefficient onto the unit-energy unknown signal, and the
        index is the summed residual.  Identically zero when the two signals
        are equal or positive multiples of each other.
    variant="as_printed"
        Literal per-sample form with the baseline sample in the divisor, kept
        for comparison; it is *not* zero for identical signals and refuses
        baselines containing zero samples.
    """
    y0 = _as_samples(baseline_signal)
    yu = _as_samples(unknown_signal)
    if y0.size != yu.size:
        raise ValueError(f"window lengths differ: {y0.size} vs {yu.size}")
    if y0.size < 2:
        raise ValueError("need at least 2 samples")
    e0, eu = float(np.dot(y0, y0)), float(np.dot(yu, yu))
    normalized = _damage_index("janapati", float(np.dot(y0, yu)), e0, eu,
                               np.sum(y0), np.sum(yu))
    if variant == "normalized":
        return float(normalized)
    if variant == "as_printed":
        if (y0 == 0.0).any():
            raise ValueError("as_printed variant requires a baseline with no zero sample")
        yu_n = yu / np.sqrt(eu)
        y0_n = float(np.dot(y0, yu_n)) / (y0 * e0)
        return float(np.sum(yu_n - y0_n))
    raise ValueError(f"unknown variant {variant!r}; use 'normalized' or 'as_printed'")


def qiu_di(baseline_signal, unknown_signal) -> float:
    """One minus the absolute normalized zero-lag cross-correlation.

    Always in [0, 1]: 0 for identical (or positively/negatively scaled)
    signals, 1 for orthogonal ones.
    """
    y0 = _as_samples(baseline_signal)
    yu = _as_samples(unknown_signal)
    if y0.size != yu.size:
        raise ValueError(f"window lengths differ: {y0.size} vs {yu.size}")
    return float(_damage_index("qiu", float(np.dot(y0, yu)), float(np.dot(y0, y0)),
                               float(np.dot(yu, yu))))


def experimental_band(samples, alpha, method: str = "normal") -> ConfidenceBand:
    """Healthy band measured from repeated acquisitions.

    ``samples`` is a sequence of scalars or of equal-length curves.
    method="normal" uses mean +/- z_{1-alpha/2} * sample std per point;
    method="percentile" uses the empirical alpha/2 and 1-alpha/2 quantiles
    (at least ceil(2/alpha) samples are recommended for stable edges).
    """
    alpha = validate_alpha(alpha)
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[0] < 1:
        raise ValueError("samples must be a nonempty sequence of scalars or 1-D curves")
    if method == "normal":
        if arr.shape[0] < 2:
            raise ValueError("method='normal' needs at least 2 samples")
        z = normal_quantile(1.0 - alpha / 2.0)
        mean = arr.mean(axis=0)
        std = arr.std(axis=0, ddof=1)
        return ConfidenceBand(lower=mean - z * std, upper=mean + z * std,
                              kind="experimental", alpha=alpha)
    if method == "percentile":
        lower = np.quantile(arr, alpha / 2.0, axis=0)
        upper = np.quantile(arr, 1.0 - alpha / 2.0, axis=0)
        return ConfidenceBand(lower=lower, upper=upper,
                              kind="experimental", alpha=alpha)
    raise ValueError(f"unknown method {method!r}; use 'normal' or 'percentile'")


def theoretical_band(psd: PsdEstimate, alpha) -> ConfidenceBand:
    """Estimation-uncertainty band implied by the estimator's chi-square law.

    Since ``2K * estimate / truth`` is chi-square with 2K degrees of freedom,
    the truth lies in ``[2K*S/q_hi, 2K*S/q_lo]`` with probability 1 - alpha,
    where q_lo/q_hi are the alpha/2 and 1-alpha/2 chi-square critical points.
    """
    alpha = validate_alpha(alpha)
    d = 2 * psd.k_windows
    q_lo = chi2_quantile(alpha / 2.0, d)
    q_hi = chi2_quantile(1.0 - alpha / 2.0, d)
    return ConfidenceBand(lower=psd.values * d / q_hi,
                          upper=psd.values * d / q_lo,
                          kind="theoretical", alpha=alpha)
