"""Null Monte Carlo through the library API, at the shape of the null
calibration criterion: no files, no CLI, no manifest.

Each trial draws 16 white-noise records of 144 samples, estimates their PSDs
(L = 16, no overlap, rectangular window, no detrend, so K = 9), builds an
M = 15 ensemble from the first 15 and tests the 16th with ``f`` (against the
first member), ``fm`` and ``z`` at three false-alarm levels on one bin.  The
cost is small-call overhead in ``spectral``, ``detectors`` and ``statdist``.
"""

from time import perf_counter

import numpy as np

import gwdetect

import checks
from journey import PassResult, clear_quantile_caches, record_cache_stats

TRIALS_PER_PASS = 200
N_RECORDS, N_SAMPLES, M = 16, 144, 15
ALPHAS = (0.01, 0.05, 0.1)
METRICS = ("f", "fm", "z")


class NullMonteCarlo:
    trials_per_pass = TRIALS_PER_PASS

    def __init__(self, seed: int):
        golden = checks.GOLDEN["null-mc"]
        self.golden = golden if seed == golden["seed"] else None
        self.seed = seed
        self.started = 0
        self.passes = 0
        self.rejections = {(m, a): 0 for m in METRICS for a in ALPHAS}
        self.first_pass = None
        self.config = gwdetect.WelchConfig(16, 0.0, 16, "rectangular", detrend_mean=False)
        freq = self.config.freq_grid(1.0)[4]
        self.band = (freq, freq)

    def describe(self):
        return {"trials_per_pass": TRIALS_PER_PASS, "records": N_RECORDS,
                "samples": N_SAMPLES, "ensemble": M, "alphas": list(ALPHAS)}

    def _trials(self, records):
        # Looked up on the package at call time, so tracing sees the calls.
        welch_psd, signal = gwdetect.welch_psd, gwdetect.Signal
        cfg, band = self.config, self.band
        rejections = {key: 0 for key in self.rejections}
        for trial in records:
            psds = [welch_psd(signal(x, 1.0), cfg) for x in trial]
            ensemble = gwdetect.BaselineEnsemble.from_psds(psds[:M])
            unknown = psds[M]
            for a in ALPHAS:
                verdicts = (
                    ("f", gwdetect.f_statistic(psds[0], unknown, a, band)),
                    ("fm", gwdetect.fm_statistic(ensemble, unknown, a, band)),
                    ("z", gwdetect.z_statistic(ensemble, unknown, a, band)),
                )
                for metric, series in verdicts:
                    rejections[metric, a] += series.verdict == gwdetect.DAMAGED
        return rejections

    def run_pass(self, tracer=None) -> PassResult:
        rng = np.random.default_rng([self.seed, self.started])
        self.started += 1
        records = rng.normal(0.0, 1.0, (TRIALS_PER_PASS, N_RECORDS, N_SAMPLES))
        clear_quantile_caches()
        t0 = perf_counter()
        try:
            rejections = self._trials(records)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            return PassResult(perf_counter() - t0, {}, 1, 1, [f"null-mc: {exc!r}"])
        seconds = perf_counter() - t0
        if tracer is not None:
            record_cache_stats(tracer)
        if self.first_pass is None:
            self.first_pass = rejections
        for key, count in rejections.items():
            self.rejections[key] += count
        self.passes += 1
        return PassResult(seconds, {"trials": seconds}, 1, 0, [])

    def final_gate(self):
        """Rejection rates against alpha over every trial of the run."""
        if not self.passes:
            return ["null-mc: no pass completed"]
        return checks.check_calibration(self.rejections, self.passes * TRIALS_PER_PASS,
                                           self.first_pass, self.golden)
