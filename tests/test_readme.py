"""The README's Python examples run as written, and its config table is the
CLI's option table.

The first block (library quick start) runs on seeded white-noise records; the
second (whole-dataset scoring) runs after the CLI quick start's
``simulate --out demo --seed 7``, in the first block's namespace, since it
reuses its Welch config.
"""

import os
import re
import shlex
import subprocess
import sys
from glob import glob
from pathlib import Path

import numpy as np

from gwdetect.cli import COMMAND_OPTIONS, OPTIONS, main
from gwdetect.pipeline import METRICS

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_python_blocks_run(tmp_path, capsys, monkeypatch):
    blocks = python_blocks()
    assert len(blocks) == 2
    rng = np.random.default_rng(7)
    namespace = {"healthy_records": [rng.normal(0.0, 1.0, 500) for _ in range(10)],
                 "unknown": rng.normal(0.0, 1.0, 500)}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert capsys.readouterr().out.strip() in ("healthy", "damaged")

    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out", "demo", "--seed", "7"]) == 0
    capsys.readouterr()
    exec(compile(blocks[1], "README.md", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "1.0"  # the z AUC
    rows = [line.split()[0] for line in lines if line.split()]
    assert all(rows.count(metric) == 1 for metric in METRICS), lines


def test_readme_config_table_is_the_option_table():
    """The README's config table and ``cli.OPTIONS`` hold the same rows, each
    once: the ``[section] key``, the flag (the first code span of its cell),
    the default, a value in a code span as a config file would hold it, or
    words where the option has no default value, and the commands that read
    the row (``cli.COMMAND_OPTIONS``)."""
    table = README.read_text().split("| config key | flag | default | read by |\n"
                                     "|---|---|---|---|\n")[1]
    rows = []
    for line in table.split("\n\n", 1)[0].splitlines():
        key, flag, default, readers = line.strip("|").split(" | ")
        section, name = re.fullmatch(r"`\[(\w+)\] (\w+)`", key.strip()).groups()
        value = re.fullmatch(r"`([^`]+)`", default.strip())
        rows.append((f"{section}.{name}", re.match(r"`(--[\w-]+)`", flag.strip())[1],
                     value[1] if value else None,
                     frozenset(re.fullmatch(r"`(\w+)`", cmd)[1] for cmd in
                               readers.strip().split(", "))))
    assert len(rows) == len(set(rows))
    assert set(rows) == {
        (key, flag, default, frozenset(cmd for cmd, keys in COMMAND_OPTIONS.items() if key in keys))
        for key, (flag, default, *_) in OPTIONS.items()}


def test_readme_cli_journey_writes_utf8_on_any_locale(tmp_path):
    """The README's CLI quick start, and ``report --out``, run as written with
    every text opened in the locale's default encoding an error: each output
    names UTF-8 (and LF line ends) itself."""
    block = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.S | re.M)[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("gwdetect ")]
    assert [argv[1] for argv in commands] == ["simulate", "detect", "roc", "psd", "report"]
    commands.append(commands[-1] + ["--out", "report.txt"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    for argv in commands:
        argv = [name for arg in argv[1:]
                for name in (sorted(glob(arg, root_dir=tmp_path)) if "*" in arg else [arg])]
        run = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                              "-W", "error::EncodingWarning", "-m", "gwdetect.cli", *argv],
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == 0, (argv, run.stderr)
    assert (tmp_path / "report.txt").read_bytes() == \
        (tmp_path / "results" / "summary.txt").read_bytes()
