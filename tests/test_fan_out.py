"""``dataio.fan_out`` and the commands that write through it: the same bytes,
exit codes and messages with one process and with several."""

import faulthandler
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import gwdetect.cli as cli
import gwdetect.dataio as dataio
from gwdetect.cli import main
from gwdetect.dataio import fan_out, read_signal
from gwdetect.pipeline import DatasetManifest, ManifestEntry
from test_cli import _common, simulate_small, tree_digest


@pytest.fixture(autouse=True)
def deadline():
    """A fork-join that never joins fails the run with every thread's stack
    instead of stalling it."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(params=[1, 3], ids=["one-cpu", "three-cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(dataio, "_usable_cpus", lambda: request.param)
    return request.param


@pytest.fixture()
def three_cpus(monkeypatch):
    monkeypatch.setattr(dataio, "_usable_cpus", lambda: 3)


def test_fan_out_keeps_task_order_and_uses_workers_only_with_several_cpus(cpus):
    n = 5 * dataio._MIN_FORK + 3
    assert fan_out(divmod, ((i, 7) for i in range(n))) == [divmod(i, 7) for i in range(n)]
    pids = fan_out(os.getpid, [()] * n)
    # one process per CPU, this one among them, each taking every cpus-th task
    assert len(set(pids)) == cpus and pids[::cpus] == [os.getpid()] * len(pids[::cpus])
    # a task list below the smallest batch that forks is not worth a fork
    assert set(fan_out(os.getpid, [()] * (dataio._MIN_FORK - 1))) == {os.getpid()}


def test_fan_out_raises_a_task_error_with_its_type_and_message(cpus):
    tasks = [("1",)] * (3 * dataio._MIN_FORK) + [("x",)] + [("2",)] * dataio._MIN_FORK
    with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: 'x'$"):
        fan_out(int, tasks)


def test_fan_out_runs_a_closure_on_tasks_that_cannot_be_pickled(three_cpus):
    lock = threading.Lock()  # neither it nor the local function pickles

    def locked_square(held, i):
        with held:
            return i * i, os.getpid()

    out = fan_out(locked_square, [(lock, i) for i in range(20)])
    assert [v for v, _ in out] == [i * i for i in range(20)]
    assert len({pid for _, pid in out}) == 3


def test_fan_out_draws_a_generator_once_in_this_process(three_cpus, tmp_path):
    log = tmp_path / "drawn.txt"

    def tasks():
        for i in range(20):
            with log.open("a") as fh:  # a child drawing again would append too
                fh.write(f"{os.getpid()} {i}\n")
            yield (i,)

    assert fan_out(abs, tasks()) == list(range(20))
    assert log.read_text().splitlines() == [f"{os.getpid()} {i}" for i in range(20)]


# With three processes, this one runs tasks 0, 3, 6, ..., child 1 tasks 1, 4,
# 7, ... and child 2 tasks 2, 5, 8, ...
@pytest.mark.parametrize("bad", [(4, 6), (3, 5), (5, 7)],
                         ids=["child-first", "parent-first", "two-children"])
def test_fan_out_raises_the_error_of_the_lowest_task_index(three_cpus, bad):
    def task(i):
        if i in bad:
            raise (KeyError if i % 3 == 0 else ValueError)(f"task {i}")
        return i

    with pytest.raises(KeyError if min(bad) % 3 == 0 else ValueError,
                       match=f"^'?task {min(bad)}'?$"):
        fan_out(task, [(i,) for i in range(20)])


def _open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc")
def test_fan_out_leaves_no_open_file_and_no_child(three_cpus):
    before = _open_fds()
    assert fan_out(abs, [(i,) for i in range(20)]) == list(range(20))
    with pytest.raises(ValueError):
        fan_out(int, [("1",)] * 10 + [("x",)] * 10)
    assert _open_fds() == before
    with pytest.raises(ChildProcessError):  # no child left running or unreaped
        os.waitpid(-1, os.WNOHANG)


def _killed_in_a_child(parent: int):
    def task(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
    return task


def test_a_child_that_dies_without_its_results_is_a_runtime_error(three_cpus):
    with pytest.raises(RuntimeError, match=r" ended with exit status -9 before it sent its "
                                           r"results$"):
        fan_out(_killed_in_a_child(os.getpid()), [()] * 20)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_leaves_interrupts_to_this_process(three_cpus):
    parent = os.getpid()

    def task(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGINT)
        return i

    assert fan_out(task, [(i,) for i in range(20)]) == list(range(20))


def test_a_curve_writer_that_dies_exits_as_a_computation_failure(tmp_path, capsys,
                                                                 monkeypatch, three_cpus):
    data = tmp_path / "data"
    assert simulate_small(data) == 0
    monkeypatch.setattr(cli, "_write_curve", _killed_in_a_child(os.getpid()))
    assert main(["psd", *_common(data), "--out", str(tmp_path / "res")]) == 3
    assert "exit status -9" in capsys.readouterr().err


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
    # the manifest, each record, and the one sample store, the same bytes
    # whichever process wrote which record
    assert len(data) == 1 + 12 + 1 and "signals/__gwcache__/samples.gws" in data
    assert sum(name.startswith("psd_") for name in res) > dataio._MIN_FORK


def test_two_paths_fan_out_one_path_at_a_time_with_the_same_bytes(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert simulate_small(data) == 0
    man = DatasetManifest.load(data / "manifest.csv")
    man.entries = [ManifestEntry(e.file, e.label, ("1-2", "3-4")[k % 2], "s")
                   for k, e in enumerate(man.entries)]
    man.save(data / "manifest.csv")
    trees = {}
    for n in (1, 3):
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: n)
        res = tmp_path / f"res{n}"
        for cmd, extra in (("detect", ["--metrics", "f,z", "--holdout", "1"]), ("psd", [])):
            assert main([cmd, *_common(data, *extra), "--out", str(res)]) == 0
        trees[n] = tree_digest(res)
    assert trees[1] == trees[3]
    for path in ("1-2", "3-4"):
        assert sum(name.startswith(f"psd_{path}_") for name in trees[1]) == 6
        # a path's six PSDs and two bands are a batch large enough to fork
        batch = [name for name in trees[1]
                 if name.startswith(("psd_", "band_")) and f"_{path}_" in name]
        assert len(batch) == 8 >= dataio._MIN_FORK


def test_a_simulate_whose_worker_dies_exits_3_and_publishes_no_store(tmp_path, capsys,
                                                                   monkeypatch, three_cpus):
    import gwdetect.simulate as simulate

    killed = _killed_in_a_child(os.getpid())
    real = simulate.write_signal
    monkeypatch.setattr(simulate, "write_signal", lambda *a: killed() or real(*a))
    data = tmp_path / "data"
    assert simulate_small(data) == 3
    assert "exit status -9" in capsys.readouterr().err
    assert list((data / "signals" / "__gwcache__").iterdir()) == []


def _outcome(path: Path):
    """The samples ``read_signal`` gives for ``path``, or its error message."""
    try:
        return read_signal(path).samples.tobytes()
    except ValueError as exc:
        return str(exc).replace(str(path), "<path>")


def test_two_concurrent_simulates_into_one_directory_read_back_their_texts(tmp_path):
    """Two ``simulate`` processes with different seeds write one directory at
    once.  Whichever store is published last, every record reads back what
    its text holds: the same as without the store."""
    import gwdetect

    env = dict(os.environ, PYTHONPATH=str(Path(gwdetect.__file__).resolve().parents[1]))
    data = tmp_path / "data"
    procs = [subprocess.Popen([sys.executable, "-m", "gwdetect.cli", "simulate",
                               "--out", str(data), "--seed", str(seed), "--n-baseline", "8",
                               "--ladder-steps", "2", "--n-per-damage", "2",
                               "--n-samples", "3000"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
             for seed in (5, 6)]
    for proc in procs:
        _, err = proc.communicate(timeout=100)
        assert proc.returncode == 0, err
    assert [p.name for p in (data / "signals" / "__gwcache__").iterdir()] == ["samples.gws"]
    records = sorted((data / "signals").glob("*.csv"))
    assert len(records) == 12
    stored = [_outcome(p) for p in records]
    shutil.rmtree(data / "signals" / "__gwcache__")
    assert stored == [_outcome(p) for p in records]


def test_simulate_worker_error_exits_as_the_serial_one(tmp_path, capsys, cpus):
    blocked = tmp_path / "data" / "signals" / "baseline_001.csv"
    blocked.mkdir(parents=True)
    assert simulate_small(tmp_path / "data") == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o failed: ") and str(blocked) in err
    assert "Traceback" not in err


WORKER_SCRIPT = """
import os, time
from gwdetect.dataio import fan_out, read_signal
from gwdetect.pipeline import DatasetManifest, ManifestEntry

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
