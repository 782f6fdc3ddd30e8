"""The README journey: ``simulate``, ``detect``, ``roc`` and ``psd`` through
``gwdetect.cli.main``, in process, on a dataset generated from the seed.

Each command starts with cold quantile caches, as it would in a fresh
``gwdetect`` process, and writes into an emptied directory of its own.
"""

import contextlib
import io
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from gwdetect import cli, statdist

import checks

COMMANDS = ("simulate", "detect", "roc", "psd")
# Captured before tracing replaces the module attributes with wrappers.
QUANTILES = {
    "statdist.normal_quantile": statdist.normal_quantile,
    "statdist.chi2_quantile": statdist.chi2_quantile,
    "statdist.f_quantile": statdist.f_quantile,
}


@dataclass(frozen=True)
class Shape:
    n_baseline: int
    ladder_steps: int
    n_per_damage: int
    n_samples: int
    holdout: int
    simulate_flags: tuple  # what the README's defaults need to reach this shape
    n_bins: int = 1001     # nfft 2000 -> 1001 one-sided bins

    @property
    def n_damage(self):
        return self.ladder_steps * self.n_per_damage

    @property
    def n_records(self):
        return self.n_baseline + self.n_damage

    @property
    def n_train(self):
        return self.n_baseline - self.holdout


SHAPES = {
    "readme": Shape(20, 6, 5, 8000, 5, ()),
    "large": Shape(100, 6, 20, 3000, 20,
                   ("--n-baseline", "100", "--n-per-damage", "20", "--n-samples", "3000")),
}


@dataclass
class PassResult:
    seconds: float
    stages: dict       # stage name -> seconds
    attempted: int     # operations run
    failed: int        # operations with at least one failure
    failures: list     # messages


def clear_quantile_caches():
    for fn in QUANTILES.values():
        fn.cache_clear()


def record_cache_stats(tracer):
    for name, fn in QUANTILES.items():
        info = fn.cache_info()
        tracer.counters[f"{name}.hits"] += info.hits
        tracer.counters[f"{name}.misses"] += info.misses


def run_cli(argv):
    """Run one command with cold caches; returns (exit code, seconds, stderr)."""
    clear_quantile_caches()
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejections
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a benchmark error
        rc = 1
        err.write(traceback.format_exc())
    return rc, perf_counter() - t0, err.getvalue()


def _tree_size(directory: Path):
    files = [p for p in directory.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Journey:
    trials_per_pass = 0

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.shape = SHAPES[workload]
        golden = checks.GOLDEN[workload]
        self.golden = golden if seed == golden["seed"] else None
        self.seed = seed
        self.work = work_dir
        self.data = work_dir / "data"
        self.last_auc_f = None

    def describe(self):
        s = self.shape
        return {"records": s.n_records, "healthy": s.n_baseline,
                "damage": f"{s.ladder_steps}x{s.n_per_damage}",
                "samples": s.n_samples, "holdout": s.holdout}

    def argv(self, command, out_dir: Path, metrics="f,fm,z"):
        if command == "simulate":
            return ["simulate", "--out", str(out_dir), "--seed", str(self.seed),
                    *self.shape.simulate_flags]
        args = [command, "--manifest", str(self.data / "manifest.csv"),
                "--window", "first-packet"]
        if command == "detect":
            args += ["--metrics", "f,fm,z,janapati,qiu", "--alpha", "0.05"]
        elif command == "roc":
            args += ["--metrics", metrics]
        if command != "psd":
            args += ["--holdout", str(self.shape.holdout)]
        return args + ["--out", str(out_dir)]

    def _check(self, command, out_dir):
        if command == "simulate":
            return checks.check_simulate(out_dir, self.shape)
        if command == "detect":
            return checks.check_detect(out_dir, self.shape, self.golden)
        if command == "roc":
            errors, aucs = checks.check_roc(out_dir, self.golden)
            self.last_auc_f = aucs.get("f")
            return errors
        return checks.check_psd(out_dir, self.shape)

    def run_pass(self, tracer=None) -> PassResult:
        stages, failures, failed = {}, [], 0
        self.last_auc_f = None
        for command in COMMANDS:
            out_dir = self.data if command == "simulate" else self.work / command
            shutil.rmtree(out_dir, ignore_errors=True)
            rc, seconds, stderr = run_cli(self.argv(command, out_dir))
            stages[command] = seconds
            if tracer is not None:
                record_cache_stats(tracer)
                files, size = _tree_size(out_dir)
                tracer.counters["cli.files_written"] += files
                tracer.counters["cli.bytes_written"] += size
            if rc != 0:
                errors = [f"{command}: exit code {rc}: {stderr.strip()[-300:]}"]
            else:
                try:
                    errors = self._check(command, out_dir)
                except (ValueError, KeyError, TypeError, OSError) as exc:
                    errors = [f"{command}: unreadable output: {exc!r}"]
            failed += bool(errors)
            failures += errors
        return PassResult(sum(stages.values()), stages, len(COMMANDS), failed, failures)

    def final_gate(self):
        """ROC over both damage indices, untimed; returns the failure messages."""
        out_dir = self.work / "gate"
        shutil.rmtree(out_dir, ignore_errors=True)
        rc, _, stderr = run_cli(self.argv("roc", out_dir, metrics="janapati,qiu"))
        if rc != 0:
            return [f"roc janapati,qiu: exit code {rc}: {stderr.strip()[-300:]}"]
        if self.last_auc_f is None:
            return ["roc: no auc(f) to compare the damage indices with"]
        return checks.check_damage_indices(out_dir, self.last_auc_f, self.golden)
