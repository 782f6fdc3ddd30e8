"""Show that the correctness gate passes real outputs and rejects corrupted ones.

    python3 perfbench/gate_selftest.py

Runs one ``readme`` journey at the default seed, checks its outputs, then
applies one corruption at a time to a copy and expects the gate to fail.
Exits 1 if the clean outputs fail or any corruption passes.
"""

import contextlib
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from journey import Journey  # noqa: E402
from nullmc import NullMonteCarlo  # noqa: E402


def _edit(path: Path, old: str, new: str):
    text = path.read_text()
    if old not in text:
        raise SystemExit(f"selftest: {old!r} not found in {path.name}")
    path.write_text(text.replace(old, new, 1))


def _first(directory: Path, pattern: str) -> Path:
    return sorted(directory.glob(pattern))[0]


def _swap_band_edges(path: Path):
    lines = path.read_text().splitlines()
    i = len(lines) // 4  # in the actuation band, where the edges differ
    f, lo, hi = lines[i].split(",")
    lines[i] = f"{f},{hi},{lo}"
    path.write_text("\n".join(lines) + "\n")


def _flip_verdict(path: Path):
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.endswith(",healthy,healthy"):
            lines[i] = line[: -len("healthy")] + "damaged"
            break
    path.write_text("\n".join(lines) + "\n")


def main():
    work = HERE / ".work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()


def _run(work: Path) -> int:
    seed = checks.GOLDEN["readme"]["seed"]
    journey = Journey("readme", seed, work)
    clean = journey.run_pass()
    clean_gate = journey.final_gate()
    print(f"clean readme pass, seed {seed}: {clean.failed} failed of {clean.attempted}; "
          f"damage-index gate: {len(clean_gate)} failures")
    ok = clean.failed == 0 and not clean_gate
    shape, golden = journey.shape, journey.golden

    def detect(d, g=golden):
        return checks.check_detect(d, shape, g)

    def roc(d, g=golden):
        return checks.check_roc(d, g)[0]

    cases = [
        ("report count changed", "detect", detect,
         lambda d: _edit(_first(d, "report_*.csv"), "f,false_alarm,,0,75", "f,false_alarm,,1,75")),
        ("report case total changed (any seed)", "detect", lambda d: detect(d, None),
         lambda d: _edit(_first(d, "report_*.csv"), "fm,false_alarm,,0,5", "fm,false_alarm,,0,4")),
        ("one verdict flipped (any seed)", "detect", lambda d: detect(d, None),
         lambda d: _flip_verdict(_first(d, "verdicts_*.csv"))),
        ("statistic curve missing", "detect", detect,
         lambda d: _first(d, "stat_*.csv").unlink()),
        ("auc(f) changed", "roc", roc,
         lambda d: _edit(_first(d, "roc_*_f.csv"), "# auc = 1.000000", "# auc = 0.999000")),
        ("auc(z) below 1 (any seed)", "roc", lambda d: roc(d, None),
         lambda d: _edit(_first(d, "roc_*_z.csv"), "# auc = 1.000000", "# auc = 0.990000")),
        ("psd curve missing", "psd", lambda d: checks.check_psd(d, shape),
         lambda d: _first(d, "psd_*.csv").unlink()),
        ("band edges swapped", "psd", lambda d: checks.check_psd(d, shape),
         lambda d: _swap_band_edges(_first(d, "band_theoretical_*.csv"))),
        ("manifest record dropped", "data", lambda d: checks.check_simulate(d, shape),
         lambda d: _edit(d / "manifest.csv", "signals/baseline_019.csv,healthy,1-2,set0\n", "")),
        ("auc(janapati) changed", "gate",
         lambda d: checks.check_damage_indices(d, "1.000000", golden),
         lambda d: _edit(_first(d, "roc_*_janapati.csv"), "# auc = 0.565022", "# auc = 0.565023")),
    ]
    for name, source, check, corrupt in cases:
        copy = work / "corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(work / source, copy)
        corrupt(copy)
        errors = check(copy)
        ok &= bool(errors)
        print(f"{'rejected' if errors else 'ACCEPTED'}: {name}"
              + (f" -- {errors[0]}" if errors else ""))

    mc = NullMonteCarlo(checks.GOLDEN["null-mc"]["seed"])
    mc.run_pass()
    n = mc.passes * mc.trials_per_pass
    clean_mc = mc.final_gate()
    print(f"clean null-mc pass: {len(clean_mc)} failures")
    ok &= not clean_mc
    mc.rejections["fm", 0.05] += n // 10  # a rule that over-rejects by 10 points
    errors = mc.final_gate()
    ok &= bool(errors)
    print(f"{'rejected' if errors else 'ACCEPTED'}: fm over-rejects"
          + (f" -- {errors[0]}" if errors else ""))
    print("gate self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
