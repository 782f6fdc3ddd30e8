"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads readme,large,null-mc --seeds 1-10 \
        [--seconds N] [--trace 0] [--out perfbench/trajectory/<label>.json]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

For every workload and metric it prints the median over the runs and the
interquartile distance (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.  Runs are
sequential, one process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2].split(": ", 1)[1])
    detail["run_wall_s"] = round(perf_counter() - t0, 3)
    return json.loads(lines[-1]), detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="readme,large,null-mc")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the runs and the summary here as JSON")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            result, detail = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "result": result, "detail": detail})
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: wall={detail['run_wall_s']}s "
                  f"correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v}" for k, v in values.items() if not args.trace),
                  flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name)}
            if not args.trace or name.endswith(".calls") or bounds.get(name):
                print(f"  {name:40s} median={median:.6g} spread={spread:.4f} "
                      f"bound={bounds.get(name)}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(dump(report))


def dump(report):
    """JSON with one line per run, so a new trajectory point diffs readably."""
    blocks = []
    for workload, w in report["workloads"].items():
        runs = ",\n".join("    " + json.dumps(r, sort_keys=True) for r in w["runs"])
        blocks.append(f'  {json.dumps(workload)}: {{\n'
                      f'   "summary": {json.dumps(w["summary"], sort_keys=True)},\n'
                      f'   "runs": [\n{runs}\n   ]\n  }}')
    return ('{\n "seconds": %s,\n "trace": %s,\n "workloads": {\n%s\n }\n}\n'
            % (report["seconds"], report["trace"], ",\n".join(blocks)))


if __name__ == "__main__":
    main()
