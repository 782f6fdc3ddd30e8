"""Averaged-windowed-periodogram (Welch) power spectral density estimation.

The estimator slides a tapered window of length ``L`` across the whole signal
in steps of ``D = round(L * (1 - overlap))``, averages the squared
zero-padded DFTs of the ``K = floor((N - L) / D) + 1`` segments and scales by
``1 / (K * L * U * fs)`` with ``U`` the mean squared window value.  Interior
bins of the one-sided result are doubled (DC and Nyquist are not), so that
integrating the returned values over the frequency grid recovers the
mean-square power of the (detrended) input.

Everything ``welch_psd`` needs besides the samples depends on the config
and the record length alone.  One plan per ``(config, n_samples)`` holds
``K``, the taper and its ``U``, and the index that gathers the ``K`` frames;
one grid per ``(nfft, sample_rate)`` holds the frequencies.  Both come from
small bounded caches and are read-only, so a call looks its set-up up once,
every estimate of one config and sample rate carries the same grid array, and
``PsdEstimate.same_grid`` compares such grids by identity.  ``make_window``
still returns a fresh, writable taper.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "WINDOW_KINDS",
    "Signal",
    "WelchConfig",
    "PsdEstimate",
    "make_window",
    "welch_psd",
]

WINDOW_KINDS = ("hamming", "bartlett", "rectangular")


def _checked_rate(value) -> float:
    """``value`` as a sample rate in Hz: a finite float > 0."""
    rate = float(value)
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"sample_rate must be finite and > 0, got {value!r}")
    return rate


@dataclass(frozen=True, eq=False)
class Signal:
    """A uniformly sampled real-valued record from one actuator-sensor path.

    Parameters
    ----------
    samples : array_like
        Amplitudes in volts.
    sample_rate : float
        Sampling frequency in Hz.
    label : str
        Structural-state tag, e.g. ``"healthy"`` or a damage name.
    """

    samples: np.ndarray
    sample_rate: float
    label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty 1-D sequence")
        if not np.isfinite(samples).all():
            raise ValueError("samples must all be finite")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", _checked_rate(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class WelchConfig:
    """Estimation parameters that fix the PSD's distributional properties.

    ``nfft`` defaults to ``segment_length``; larger values zero-pad each
    segment onto a finer frequency grid.
    """

    segment_length: int
    overlap_fraction: float = 0.5
    nfft: int = None
    window_kind: str = "hamming"
    detrend_mean: bool = True

    def __post_init__(self):
        L = int(self.segment_length)
        if L < 2:
            raise ValueError(f"segment_length must be >= 2, got {L}")
        object.__setattr__(self, "segment_length", L)
        ov = float(self.overlap_fraction)
        if not 0.0 <= ov < 1.0:
            raise ValueError(f"overlap_fraction must lie in [0, 1), got {ov}")
        object.__setattr__(self, "overlap_fraction", ov)
        nfft = L if self.nfft is None else int(self.nfft)
        if nfft < L:
            raise ValueError(f"nfft ({nfft}) must be >= segment_length ({L})")
        object.__setattr__(self, "nfft", nfft)
        kind = str(self.window_kind).lower()
        if kind not in WINDOW_KINDS:
            raise ValueError(f"window_kind must be one of {WINDOW_KINDS}, got {self.window_kind!r}")
        object.__setattr__(self, "window_kind", kind)
        if self.step < 1:
            raise ValueError("derived window step must be >= 1")

    @property
    def step(self) -> int:
        """Hop between consecutive window starts."""
        return int(round(self.segment_length * (1.0 - self.overlap_fraction)))

    def window_count(self, n_samples: int) -> int:
        """Number of averaged windows for an analysis range of ``n_samples``."""
        n = int(n_samples)
        if n < self.segment_length:
            raise ValueError(
                f"analysis range of {n} samples is shorter than the "
                f"segment length {self.segment_length}"
            )
        return (n - self.segment_length) // self.step + 1

    def freq_grid(self, sample_rate: float) -> np.ndarray:
        """One-sided frequency grid, 0 ... fs/2 at spacing fs/nfft.

        The array is read-only and shared by every call with the same
        ``nfft`` and sample rate.
        """
        return _one_sided_grid(self.nfft, float(sample_rate))


@dataclass(frozen=True, eq=False)
class PsdEstimate:
    """One-sided PSD on a fixed frequency grid (power per Hz)."""

    values: np.ndarray
    freq_grid: np.ndarray
    config: WelchConfig
    k_windows: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        grid = np.asarray(self.freq_grid, dtype=float)
        if values.shape != grid.shape or values.ndim != 1:
            raise ValueError("values and freq_grid must be 1-D arrays of equal length")
        if values.size != self.config.nfft // 2 + 1:
            raise ValueError("values length must be nfft//2 + 1")
        # min and max hold every value check: NaN propagates into both, an
        # infinity shows at one end, and a negative value at the low end
        lo, hi = np.minimum.reduce(values), np.maximum.reduce(values)
        if not (-math.inf < lo and hi < math.inf):
            raise ValueError("PSD values must be finite")
        if lo < 0.0:
            raise ValueError("PSD values must be nonnegative")
        if int(self.k_windows) < 1:
            raise ValueError("k_windows must be >= 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "freq_grid", grid)
        object.__setattr__(self, "k_windows", int(self.k_windows))

    @property
    def df(self) -> float:
        """Frequency grid spacing in Hz."""
        return float(self.freq_grid[1] - self.freq_grid[0]) if self.freq_grid.size > 1 else 0.0

    def same_grid(self, other: "PsdEstimate") -> bool:
        return ((self.config is other.config or self.config == other.config)
                and (self.freq_grid is other.freq_grid
                     or np.array_equal(self.freq_grid, other.freq_grid)))


def make_window(kind: str, length: int):
    """Return the taper ``w[0..L-1]`` and its mean squared value ``U``.

    ``hamming`` and ``bartlett`` use the symmetric (non-periodic) closed
    forms; ``bartlett`` is zero at both endpoints.  ``rectangular`` is
    all-ones with ``U = 1`` exactly.
    """
    L = int(length)
    if L < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    kind = str(kind).lower()
    t = np.arange(L, dtype=float)
    if kind == "hamming":
        w = 0.54 - 0.46 * np.cos(2.0 * np.pi * t / (L - 1))
    elif kind == "bartlett":
        w = 1.0 - np.abs(2.0 * t / (L - 1) - 1.0)
    elif kind == "rectangular":
        return np.ones(L), 1.0
    else:
        raise ValueError(f"unsupported window kind {kind!r}")
    u = float(np.mean(w * w))
    return w, u


# The caches below are keyed on config values and record lengths only.
# Their sizes bound what a process keeps: one command uses one or two configs
# and record lengths, and a miss only rebuilds what every call built before.

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _WelchPlan(NamedTuple):
    """The set-up of ``welch_psd`` for one config and record length."""

    k: int                # windows averaged
    taper: np.ndarray     # None for the all-ones taper, which changes no frame
    u: float              # mean squared taper value
    index: np.ndarray     # row i gathers samples i*step ... i*step+L-1


@lru_cache(maxsize=8)
def _plan(config: "WelchConfig", n_samples: int) -> _WelchPlan:
    k = config.window_count(n_samples)
    L = config.segment_length
    w, u = make_window(config.window_kind, L)
    if u == 0.0:
        raise ValueError("window has zero energy; pick a longer bartlett window")
    taper = None if config.window_kind == "rectangular" else _read_only(w)
    index = (np.arange(k) * config.step)[:, None] + np.arange(L)
    return _WelchPlan(k, taper, u, _read_only(index))


@lru_cache(maxsize=16)
def _one_sided_grid(nfft: int, sample_rate: float) -> np.ndarray:
    return _read_only(np.arange(nfft // 2 + 1) * (_checked_rate(sample_rate) / nfft))


def welch_psd(signal: Signal, config: WelchConfig) -> PsdEstimate:
    """Estimate the one-sided PSD of the whole of ``signal``; cut a packet
    window out first (``pipeline.extract_packet``) to analyse only that.

    Returns
    -------
    PsdEstimate
        Deterministic for fixed input; an all-zero signal yields an all-zero
        estimate.
    """
    seg = signal.samples
    k, taper, u, index = _plan(config, seg.size)
    if config.detrend_mean:
        seg = seg - seg.mean()

    frames = seg[index]
    if taper is not None:
        frames *= taper
    spec = np.fft.rfft(frames, n=config.nfft, axis=1)
    power = np.abs(spec)
    values = np.add.reduce(np.square(power, out=power), axis=0)
    values /= k * config.segment_length * u * signal.sample_rate
    # one-sided doubling: interior bins only (DC never; Nyquist exists for even nfft)
    if config.nfft % 2 == 0:
        values[1:-1] *= 2.0
    else:
        values[1:] *= 2.0
    return PsdEstimate(
        values=values,
        freq_grid=config.freq_grid(signal.sample_rate),
        config=config,
        k_windows=k,
    )
