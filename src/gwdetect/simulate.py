"""Synthetic pitch-catch signal generation.

A tone burst is actuated, travels one actuator-sensor path with a fixed
arrival delay and transmission gain, and is optionally altered by a
parametric damage effect: multiplicative attenuation, an extra propagation
delay, and a delayed secondary echo.  White Gaussian noise models the
acquisition-to-acquisition variability of a controlled environment.  Every
random quantity is driven by an explicit seed, so datasets are reproducible
sample for sample.

``synth_dataset`` synthesizes and writes its records on every CPU the process
may run on (``dataio.fan_out``): the calling process writes its share, and
one forked child for each other CPU writes the rest.  Each writes its records'
text files and their samples into the directory's one sample store
(``dataio.SampleStore``), which is published once every record is in.
``taskset -c 0`` runs it all in the calling process.  Each record has its own
seed, so the files are the same bytes either way.

Every rule on an input of ``synth_dataset``, ``ToneBurstSpec``,
``attenuation_ladder`` and ``propagate`` is written once, here, and a value
that breaks one raises ``_BadParameter``, which names the parameter, its
value and what was expected; ``gwdetect simulate`` names the flag instead.
Every input is checked before ``synth_dataset`` writes anything.
"""

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .dataio import SampleStore, fan_out, write_signal
from .pipeline import DatasetManifest, ManifestEntry
from .spectral import Signal, _checked_rate

__all__ = [
    "ToneBurstSpec",
    "DamageSpec",
    "IDENTITY_DAMAGE",
    "tone_burst",
    "propagate",
    "noise_std_for_snr",
    "attenuation_ladder",
    "synth_dataset",
]


class _AsNamed(dict):
    """Each ``{parameter}`` mark of an expected text spelled as the
    parameter's own name."""

    def __missing__(self, key):
        return key


class _BadParameter(ValueError):
    """Parameter ``name`` holds ``value``, which breaks its rule; ``expected``
    says what the rule asks, marking any other parameter the rule joins as
    ``{parameter}``, so that a caller can spell each in its own terms.  Every
    numeric rule here is a comparison that NaN fails."""

    def __init__(self, name: str, value, expected: str):
        self.name, self.value, self.expected = name, value, expected
        super().__init__(f"{name} {value!r}: expected {expected.format_map(_AsNamed())}")


def _require(ok: bool, name: str, value, expected: str) -> None:
    """Raise ``_BadParameter(name, value, expected)`` unless ``ok``."""
    if not ok:
        raise _BadParameter(name, value, expected)


@dataclass(frozen=True)
class ToneBurstSpec:
    """An n-cycle envelope-tapered sine actuation pulse.

    ``amplitude`` is peak to peak; the generated waveform is normalized so
    its largest absolute sample equals exactly ``amplitude / 2``.
    """

    center_freq: float
    n_cycles: int = 5
    amplitude: float = 90.0
    envelope: str = "hanning"
    sample_rate: float = 24e6

    def __post_init__(self):
        try:
            _checked_rate(self.sample_rate)
        except ValueError:
            raise _BadParameter("sample_rate", self.sample_rate, "a finite number > 0") from None
        nyquist = self.sample_rate / 2.0
        _require(0.0 < self.center_freq < nyquist, "center_freq", self.center_freq,
                 f"a number > 0 below half the {{sample_rate}}, {nyquist:g} Hz, "
                 "above which it would alias")
        _require(self.n_cycles >= 1, "n_cycles", self.n_cycles, "an integer >= 1")
        _require(0.0 < self.amplitude < math.inf, "amplitude", self.amplitude,
                 "a finite number > 0")
        _require(str(self.envelope).lower() in ("hanning", "hamming"), "envelope",
                 self.envelope, "'hanning' or 'hamming'")
        object.__setattr__(self, "envelope", str(self.envelope).lower())
        object.__setattr__(self, "n_cycles", int(self.n_cycles))

    @property
    def n_samples(self) -> int:
        """Burst duration n_cycles/center_freq expressed in samples."""
        return int(round(self.n_cycles / self.center_freq * self.sample_rate))

    @property
    def bandwidth(self) -> float:
        """Nominal actuation bandwidth center_freq / n_cycles."""
        return self.center_freq / self.n_cycles


@dataclass(frozen=True)
class DamageSpec:
    """Parametric damage effect on the received packet.

    attenuation : multiplicative gain in (0, 1]
    delay       : extra propagation delay in seconds
    scatter_gain: amplitude of a delayed secondary echo, in [0, 1)
    """

    attenuation: float = 1.0
    delay: float = 0.0
    scatter_gain: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not 0.0 < self.attenuation <= 1.0:
            raise ValueError(f"attenuation must lie in (0, 1], got {self.attenuation}")
        if not 0.0 <= self.delay < math.inf:  # so only arrival_delay can make a shift infinite
            raise ValueError(f"delay must be a finite number >= 0, got {self.delay}")
        if not 0.0 <= self.scatter_gain < 1.0:
            raise ValueError(f"scatter_gain must lie in [0, 1), got {self.scatter_gain}")


IDENTITY_DAMAGE = DamageSpec(1.0, 0.0, 0.0, label="healthy")

# A damage label starts the name of its records' files (signals/<label>_000.csv);
# the manifest's own rule (``ManifestEntry``) holds it as a field.
_NOT_IN_LABEL = ("/", "\\", "\0")


def tone_burst(spec: ToneBurstSpec) -> Signal:
    """Generate the actuation burst: envelope-tapered sine, zero elsewhere."""
    n = spec.n_samples  # >= 2, as center_freq < sample_rate / 2
    t = np.arange(n, dtype=float)
    carrier = np.sin(2.0 * np.pi * spec.center_freq * t / spec.sample_rate)
    if spec.envelope == "hanning":
        env = 0.5 - 0.5 * np.cos(2.0 * np.pi * t / (n - 1))
    else:
        env = 0.54 - 0.46 * np.cos(2.0 * np.pi * t / (n - 1))
    shape = env * carrier
    peak = float(np.max(np.abs(shape)))
    # a 2-sample hanning burst is all zeros
    _require(peak > 0.0, "n_cycles", spec.n_cycles,
             f"more cycles: the {spec.envelope} burst of {n} samples at {{center_freq}} "
             "and {sample_rate} is all zeros")
    return Signal(samples=(spec.amplitude / 2.0) * (shape / peak),
                  sample_rate=spec.sample_rate, label="burst")


def propagate(burst: Signal, arrival_delay: float, path_gain: float,
              damage: DamageSpec = IDENTITY_DAMAGE, noise_std: float = 0.0,
              seed=None, n_samples: int = None) -> Signal:
    """Synthesize the received record for one acquisition.

    The main packet lands at ``arrival_delay + damage.delay`` (rounded to a
    whole sample) scaled by ``path_gain * damage.attenuation``; when
    ``scatter_gain > 0`` a secondary echo of the bare burst follows one burst
    length later.  White Gaussian noise with ``noise_std`` is added over the
    whole record; ``seed`` fixes the noise stream.
    """
    if n_samples is None:
        raise ValueError("n_samples is required (length of the received record)")
    _require(0.0 <= arrival_delay < math.inf, "arrival_delay", arrival_delay,
             "a finite number >= 0")
    _require(math.isfinite(path_gain), "path_gain", path_gain, "a finite number")
    b = burst.samples
    fs = burst.sample_rate
    shift = (float(arrival_delay) + damage.delay) * fs
    _require(shift < math.inf, "arrival_delay", arrival_delay,
             "a finite number >= 0 that is a finite number of samples at the {sample_rate}")
    shift = int(round(shift))
    echo = damage.scatter_gain > 0.0
    end = shift + b.size * (2 if echo else 1)
    _require(n_samples >= end, "n_samples", n_samples,
             f"an integer >= {end}, where the packet placed by {{arrival_delay}} "
             + ("and its echo end" if echo else "ends"))
    n = int(n_samples)
    y = np.zeros(n)
    y[shift:shift + b.size] = path_gain * damage.attenuation * b
    if echo:
        y[shift + b.size:end] += damage.scatter_gain * b
    if noise_std > 0.0:
        y = y + np.random.default_rng(seed).normal(0.0, noise_std, n)
    label = damage.label or "healthy"
    return Signal(samples=y, sample_rate=fs, label=label)


def noise_std_for_snr(clean: Signal, snr_db: float) -> float:
    """Noise std giving the requested SNR over the packet support.

    SNR is measured against the RMS of the nonzero span of the clean
    (noiseless) received record.  A level beyond the largest double is inf.
    """
    support = clean.samples[clean.samples != 0.0]
    if support.size == 0:
        raise ValueError("clean signal is all zero; SNR is undefined")
    rms = float(np.sqrt(np.mean(support ** 2)))
    try:
        return rms * 10.0 ** (-float(snr_db) / 20.0)
    except OverflowError:
        return math.inf


def attenuation_ladder(n_steps: int, start: float = 0.9, stop: float = 0.5):
    """Damage specs with attenuation stepping from ``start`` down to ``stop``;
    none for 0 steps."""
    _require(n_steps >= 0, "n_steps", n_steps, "a non-negative integer")
    _require(0.0 < start <= 1.0, "start", start, "a number in (0, 1]")
    _require(0.0 < stop <= 1.0, "stop", stop, "a number in (0, 1]")
    gains = np.linspace(start, stop, int(n_steps))
    labels = [f"att-{g:.3g}" for g in gains]  # the gains step one way: a repeat is a neighbour
    for label, after in zip(labels, labels[1:]):
        _require(label != after, "n_steps", n_steps,
                 f"fewer steps: two steps from {{start}} to {{stop}} share the label {label!r}, "
                 "which spells the gain to 3 significant digits")
    return [DamageSpec(attenuation=float(g), label=label) for g, label in zip(gains, labels)]


def synth_dataset(out_dir, n_baseline: int = 20, damage_specs=(),
                  noise_std: float = None, seed: int = 0, *,
                  burst: ToneBurstSpec = None, n_per_damage: int = 1,
                  arrival_delay: float = 50e-6, path_gain: float = 0.05,
                  n_samples: int = 8000, snr_db: float = 40.0,
                  path_id: str = "1-2", set_id: str = "set0") -> DatasetManifest:
    """Write a synthetic dataset (signal files plus manifest) to ``out_dir``.

    Baseline records differ only by their noise realization.  ``noise_std``
    defaults to the level that realizes ``snr_db`` against the clean healthy
    record.  The manifest gets two windows ("first-packet" around the packet
    arrival and "full") and a verdict band of the burst center frequency
    +/- twice its nominal bandwidth.

    Returns the manifest (already saved as ``manifest.csv``).
    """
    out_dir = Path(out_dir)
    _require(n_baseline >= 2, "n_baseline", n_baseline, "an integer >= 2")
    _require(seed >= 0, "seed", seed, "a non-negative integer")
    _require(n_per_damage >= 0, "n_per_damage", n_per_damage, "a non-negative integer")
    _require(noise_std is None or 0.0 <= noise_std < math.inf, "noise_std", noise_std,
             "a finite number >= 0")
    _require(math.isfinite(snr_db), "snr_db", snr_db, "a finite number")
    n_baseline = int(n_baseline)
    if burst is None:
        burst = ToneBurstSpec(center_freq=250e3)
    damage_specs = list(damage_specs)
    for spec in damage_specs:
        if not spec.label:
            raise ValueError("every damage spec needs a label")
        if "".join(spec.label.splitlines()) != spec.label:
            raise ValueError(f"damage label {spec.label!r} holds a line break")
        if any(c in spec.label for c in _NOT_IN_LABEL):
            raise ValueError(f"damage label {spec.label!r} is not a plain file-name part "
                             "(it holds '/', '\\' or NUL)")
        if spec.label == IDENTITY_DAMAGE.label:
            raise ValueError(f"damage label {spec.label!r} is the baseline label; "
                             "its records would be read as baselines")
    names = [f"baseline_{i:03d}" for i in range(n_baseline)]
    damages = [IDENTITY_DAMAGE] * n_baseline
    for spec in damage_specs:
        names += [f"{spec.label}_{j:03d}" for j in range(int(n_per_damage))]
        damages += [spec] * int(n_per_damage)
    # the manifest is built before any record is written, so that its rules
    # (a field's, a file listed twice) refuse a label first
    entries = [ManifestEntry(file=f"signals/{name}.csv", label=damage.label,
                             path_id=path_id, set_id=set_id)
               for name, damage in zip(names, damages)]
    pulse = tone_burst(burst)
    clean = propagate(pulse, arrival_delay, path_gain, IDENTITY_DAMAGE,
                      noise_std=0.0, n_samples=n_samples)
    if noise_std is None:
        _require(path_gain != 0.0, "path_gain", path_gain,
                 "a finite number other than 0, as {snr_db} sets the noise level")
        noise_std = noise_std_for_snr(clean, snr_db)
        _require(noise_std < math.inf, "snr_db", snr_db,
                 "a finite number whose noise level is, as a given {noise_std} must be, "
                 "a finite number >= 0")
    start = int(round(arrival_delay * burst.sample_rate))
    packet_len = min(max(pulse.samples.size, 500), n_samples - start)
    windows = {
        "first-packet": (start, packet_len),
        "full": (0, int(n_samples)),
    }
    band = (max(burst.center_freq - 2.0 * burst.bandwidth, 0.0),
            min(burst.center_freq + 2.0 * burst.bandwidth, burst.sample_rate / 2.0))
    manifest = DatasetManifest(entries=entries, sample_rate=burst.sample_rate,
                               baseline_label=IDENTITY_DAMAGE.label, packet_windows=windows,
                               band=band, base_dir=out_dir)
    manifest.validate()

    signals = out_dir / "signals"
    signals.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(int(seed)).spawn(len(names))
    with SampleStore(signals, [int(n_samples)] * len(names)) as store:
        emit = partial(_emit, signals, store, pulse, arrival_delay, path_gain, noise_std,
                       n_samples)
        fan_out(emit, zip(range(len(names)), names, damages, seeds))
    manifest.save(out_dir / "manifest.csv")
    return manifest


def _emit(signals: Path, store: SampleStore, pulse: Signal, arrival_delay: float,
          path_gain: float, noise_std: float, n_samples: int, i: int, name: str,
          damage: DamageSpec, seed) -> None:
    """Synthesize record ``i`` of ``synth_dataset`` and write it to
    ``signals/<name>.csv`` and to the store."""
    sig = propagate(pulse, arrival_delay, path_gain, damage,
                    noise_std=noise_std, seed=seed, n_samples=n_samples)
    store.put(i, write_signal(signals / f"{name}.csv", sig), sig.samples)
