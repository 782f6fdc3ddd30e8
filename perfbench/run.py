"""Seeded end-to-end and per-layer benchmark of gwdetect.

    python3 perfbench/run.py --workload readme --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, so nothing is installed.  Workloads (inputs come from ``--seed``
only):

* ``readme``  -- the README quick start: ``simulate`` (20 healthy records and a
  6x5 ladder of 8000 samples), ``detect`` (all five metrics, alpha 0.05,
  holdout 5), ``roc`` (f, fm, z) and ``psd``.  Text parsing and CSV
  formatting dominate.
* ``large``   -- the same four commands on 100 healthy records and a 6x20
  ladder of 3000 samples, holdout 20.  Per-case scoring loops dominate.
* ``null-mc`` -- library-only null Monte Carlo (see ``nullmc.py``): no files,
  no CLI, so file or pipeline changes must leave it unchanged.

One pass is the workload's job once: the four commands in order, or 200
Monte Carlo trials.  One untimed warm-up pass comes first (the first pass in a
fresh process pays first-touch memory and file-cache costs); timed passes then
repeat until ``--seconds`` would be exceeded, and every time reported is a
mean over timed passes (total time over the count).  On a shared machine the
speed drifts in spells of seconds to a minute; the mean averages the spells a
run sees, where the median jumps to whichever spell held most passes, so the
mean repeats more closely from run to run.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (mean over fresh
interpreters of the time to import ``gwdetect.cli``, which every CLI call
pays; the interpreters are started between the timed passes and take about
``SETUP_SHARE`` of the run), ``pipeline_s`` (untraced pass) and
``peak_rss_mb`` (peak resident memory of this process).  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of the
traced ones (see ``spans.py``), the untraced time of each command and the
tracing overhead.  Metric names and units are those listed in
``BENCHMARK.json``.  Both print, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; an operation is a
command or a Monte Carlo pass, plus one final gate per run, and it fails on a
non-zero exit code or on any check in ``checks.py``.  The line before it
records the environment, every pass time and every setup sample.
"""

import os

# Single-threaded numerical libraries; must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("readme", "large", "null-mc")
# Share of a --trace 0 run given to setup_s spawns, interleaved with the passes.
SETUP_SHARE = 0.15
SETUP_CODE = ("import time; t = time.perf_counter(); import gwdetect.cli; "
              "print(repr(time.perf_counter() - t))")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def published_units():
    """Metric name -> unit for --trace 0 and --trace 1, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]


def spawn_setup():
    """Import time of gwdetect.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def environment(workload):
    rev = "unknown"  # the benchmark may run in an exported tree
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or rev
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "shape": workload.describe()}


def until_deadline(seconds, step):
    """Run ``step()`` until another pass would overrun ``seconds``."""
    t_start = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        step()
        durations.append(perf_counter() - t0)
        if perf_counter() - t_start + statistics.median(durations) > seconds:
            return


def mean_time(passes, key=lambda p: p.seconds):
    return statistics.fmean(key(p) for p in passes)


def plain_run(workload, seconds):
    """Timed passes, with setup_s spawns after each so they share its slow and fast spells."""
    passes, setups, spawn_wall = [], [], []
    spawn_setup()  # untimed: the first spawn may compile bytecode
    t_start = perf_counter()

    def step():
        passes.append(workload.run_pass())
        while not setups or sum(spawn_wall) < SETUP_SHARE * (perf_counter() - t_start):
            t0 = perf_counter()
            setups.append(spawn_setup())
            spawn_wall.append(perf_counter() - t0)

    until_deadline(seconds, step)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, {"pipeline_s": mean_time(passes), "peak_rss_mb": rss_mb,
                    "setup_s": statistics.fmean(setups)}, setups


def trace_run(workload, seconds):
    import spans

    tracer = spans.Tracer()
    plain, traced, values = [], [], []

    def step():
        if len(plain) <= len(traced):
            plain.append(workload.run_pass())
            return
        tracer.reset()
        uninstall = spans.install(tracer)
        try:
            traced.append(workload.run_pass(tracer))
        finally:
            uninstall()
        values.append(spans.pass_values(tracer))

    until_deadline(seconds, step)
    if not traced:
        step()
    # median_low keeps counters integral
    metrics = {name: statistics.median_low(v[name] for v in values) for name in values[0]}
    for stage in ("simulate", "detect", "roc", "psd"):
        metrics[f"{stage}_s"] = mean_time(plain, lambda p: p.stages.get(stage, 0.0))
    untraced = mean_time(plain)
    metrics["mc_trials_per_s"] = workload.trials_per_pass / untraced
    metrics["trace.overhead_s"] = mean_time(traced) - untraced
    return plain + traced, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gwdetect" / "__init__.py").is_file():
        print(f"perfbench: no gwdetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gwdetect

    if Path(gwdetect.__file__).resolve().parent != SRC / "gwdetect":
        print(f"perfbench: imported gwdetect from {gwdetect.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    units = published_units()[args.trace]
    from journey import Journey
    from nullmc import NullMonteCarlo

    os.environ.pop("GWDETECT_OUTDIR", None)
    work_dir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        if args.workload == "null-mc":
            workload = NullMonteCarlo(args.seed)
        else:
            workload = Journey(args.workload, args.seed, work_dir)
        env = environment(workload)
        warmup = workload.run_pass()  # untimed
        if args.trace:
            passes, values = trace_run(workload, args.seconds)
            setups = []
        else:
            passes, values, setups = plain_run(workload, args.seconds)
        gate_failures = workload.final_gate()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_dir.parent.rmdir()

    checked = [warmup] + passes
    failures = [f for p in checked for f in p.failures] + gate_failures
    attempted = sum(p.attempted for p in checked) + 1
    failed = sum(p.failed for p in checked) + bool(gate_failures)
    for message in failures[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    stages = sorted({s for p in passes for s in p.stages})
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "passes": len(passes),
        "warmup_s": round(warmup.seconds, 6),
        "pass_s": [round(p.seconds, 6) for p in passes],
        "stage_s": {s: [round(p.stages.get(s, 0.0), 6) for p in passes] for s in stages},
        "setup_samples_s": [round(t, 6) for t in setups],
    }
    print("perfbench: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
