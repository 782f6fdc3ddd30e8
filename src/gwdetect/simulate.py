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
        _checked_rate(self.sample_rate)
        if not self.center_freq < self.sample_rate / 2.0:
            raise ValueError(
                f"center_freq {self.center_freq:g} Hz would alias at "
                f"sample_rate {self.sample_rate:g} Hz"
            )
        if self.center_freq <= 0 or self.sample_rate <= 0:
            raise ValueError("center_freq and sample_rate must be > 0")
        if int(self.n_cycles) < 1:
            raise ValueError("n_cycles must be >= 1")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be > 0")
        if str(self.envelope).lower() not in ("hanning", "hamming"):
            raise ValueError(f"envelope must be 'hanning' or 'hamming', got {self.envelope!r}")
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
        if self.delay < 0.0:
            raise ValueError("delay must be >= 0")
        if not 0.0 <= self.scatter_gain < 1.0:
            raise ValueError(f"scatter_gain must lie in [0, 1), got {self.scatter_gain}")


IDENTITY_DAMAGE = DamageSpec(1.0, 0.0, 0.0, label="healthy")

# A damage label starts the name of its records' files (signals/<label>_000.csv);
# the manifest's own rule (``ManifestEntry``) holds it as a field.
_NOT_IN_LABEL = ("/", "\\", "\0")


def tone_burst(spec: ToneBurstSpec) -> Signal:
    """Generate the actuation burst: envelope-tapered sine, zero elsewhere."""
    n = spec.n_samples
    if n < 2:
        raise ValueError("burst is shorter than 2 samples; raise n_cycles or sample_rate")
    t = np.arange(n, dtype=float)
    carrier = np.sin(2.0 * np.pi * spec.center_freq * t / spec.sample_rate)
    if spec.envelope == "hanning":
        env = 0.5 - 0.5 * np.cos(2.0 * np.pi * t / (n - 1))
    else:
        env = 0.54 - 0.46 * np.cos(2.0 * np.pi * t / (n - 1))
    shape = env * carrier
    peak = float(np.max(np.abs(shape)))
    if peak == 0.0:
        raise ValueError("degenerate burst (all-zero waveform)")
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
    n = int(n_samples)
    b = burst.samples
    fs = burst.sample_rate
    shift = int(round((float(arrival_delay) + damage.delay) * fs))
    if shift < 0 or shift + b.size > n:
        raise ValueError(
            f"packet at samples [{shift}, {shift + b.size}) falls outside "
            f"the {n}-sample record"
        )
    y = np.zeros(n)
    y[shift:shift + b.size] = path_gain * damage.attenuation * b
    if damage.scatter_gain > 0.0:
        echo = shift + b.size
        if echo + b.size > n:
            raise ValueError(
                f"echo at samples [{echo}, {echo + b.size}) falls outside "
                f"the {n}-sample record"
            )
        y[echo:echo + b.size] += damage.scatter_gain * b
    if noise_std > 0.0:
        y = y + np.random.default_rng(seed).normal(0.0, noise_std, n)
    label = damage.label or "healthy"
    return Signal(samples=y, sample_rate=fs, label=label)


def noise_std_for_snr(clean: Signal, snr_db: float) -> float:
    """Noise std giving the requested SNR over the packet support.

    SNR is measured against the RMS of the nonzero span of the clean
    (noiseless) received record.
    """
    support = clean.samples[clean.samples != 0.0]
    if support.size == 0:
        raise ValueError("clean signal is all zero; SNR is undefined")
    rms = float(np.sqrt(np.mean(support ** 2)))
    return rms * 10.0 ** (-float(snr_db) / 20.0)


def attenuation_ladder(n_steps: int, start: float = 0.9, stop: float = 0.5):
    """Damage specs with attenuation stepping from ``start`` down to ``stop``."""
    if int(n_steps) < 1:
        raise ValueError("n_steps must be >= 1")
    gains = np.linspace(start, stop, int(n_steps))
    return [DamageSpec(attenuation=float(g), label=f"att-{g:.3g}") for g in gains]


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
    n_baseline = int(n_baseline)
    if n_baseline < 2:
        raise ValueError("n_baseline must be >= 2")
    if int(seed) < 0:
        raise ValueError("seed must be >= 0")
    if int(n_per_damage) < 0:
        raise ValueError("n_per_damage must be >= 0")
    if noise_std is not None and not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
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
    clean = propagate(pulse, arrival_delay, path_gain, IDENTITY_DAMAGE,
                      noise_std=0.0, n_samples=n_samples)
    if noise_std is None:
        noise_std = noise_std_for_snr(clean, snr_db)

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
