"""``dataio.fan_out`` and the commands that write through it: the same bytes,
exit codes and messages with one worker and with several."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gwdetect.dataio as dataio
from gwdetect.cli import main
from gwdetect.dataio import fan_out
from test_cli import _common, simulate_small, tree_digest


@pytest.fixture(params=[1, 3], ids=["one-cpu", "three-cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(dataio, "_usable_cpus", lambda: request.param)
    return request.param


def test_fan_out_keeps_task_order_and_uses_workers_only_with_several_cpus(cpus):
    n = 5 * dataio._CHUNK + 3
    assert fan_out(divmod, ((i, 7) for i in range(n))) == [divmod(i, 7) for i in range(n)]
    pids = set(fan_out(os.getpid, [()] * n))
    if cpus == 1:
        assert pids == {os.getpid()}
    else:
        assert os.getpid() not in pids
    # a task list that fits one chunk is not worth a fork
    assert set(fan_out(os.getpid, [()] * (dataio._CHUNK - 1))) == {os.getpid()}


def test_fan_out_raises_a_task_error_with_its_type_and_message(cpus):
    tasks = [("1",)] * (3 * dataio._CHUNK) + [("x",)] + [("2",)] * dataio._CHUNK
    with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: 'x'$"):
        fan_out(int, tasks)


def test_commands_write_the_same_bytes_with_one_worker_or_several(tmp_path, monkeypatch):
    trees = {}
    for n in (1, 3):
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: n)
        data, res = tmp_path / f"data{n}", tmp_path / f"res{n}"
        assert simulate_small(data) == 0
        for cmd, extra in (("detect", ["--metrics", "f,fm,z,janapati,qiu",
                                       "--alpha", "0.01,0.05", "--holdout", "3"]),
                           ("psd", [])):
            assert main([cmd, *_common(data, *extra), "--out", str(res)]) == 0
        trees[n] = tree_digest(data), tree_digest(res)
    assert trees[1] == trees[3]
    data, res = trees[1]
    assert len(data) == 1 + 2 * 12  # manifest, then each record and its sidecar
    assert sum(name.startswith("stat_") for name in res) > dataio._CHUNK


def test_simulate_worker_error_exits_as_the_serial_one(tmp_path, capsys, cpus):
    blocked = tmp_path / "data" / "signals" / "baseline_001.csv"
    blocked.mkdir(parents=True)
    assert simulate_small(tmp_path / "data") == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failed: ") and str(blocked) in err
    assert "Traceback" not in err


WORKER_SCRIPT = """
import os, time
from gwdetect.dataio import fan_out

def report_and_sleep(seconds):
    os.write(1, b"%d\\n" % os.getpid())  # one write: the workers share the pipe
    time.sleep(seconds)

fan_out(report_and_sleep, [(60,)] * 16)
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux") or dataio._usable_cpus() < 2,
                    reason="needs /proc and two usable CPUs")
def test_workers_exit_when_the_parent_is_killed(tmp_path):
    import gwdetect

    env = dict(os.environ, PYTHONPATH=str(Path(gwdetect.__file__).resolve().parents[1]))
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.Popen([sys.executable, "-c", WORKER_SCRIPT], env=env,
                                stdout=subprocess.PIPE, stderr=err, text=True)
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        assert all(lines), (tmp_path / "stderr.txt").read_text()
        workers = list(map(int, lines))
        assert all(map(_running, workers))
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        proc.kill()
        proc.stdout.close()
