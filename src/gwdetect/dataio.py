"""Signal-file I/O.

A signal file is a one-column CSV of volt samples with a two-line header::

    sample_rate,<Hz>
    label,<free text>
    <sample>
    ...

Decimal point is ``.``, separator is ``,``, line endings are LF, and the
text is UTF-8.  The label is one line: ``write_signal`` refuses a label that
holds a line break.

The text file is the reference.  ``write_signal`` also leaves its parsed form
in ``<dir>/__gwcache__/<file name>.npy``: the SHA-256 of the text bytes, then
an ``.npy`` payload of the samples.  ``read_signal`` loads that payload only
while its digest matches the file's current bytes, and parses the text in
every other case, so deleting a sidecar is always safe.  It reads each file
once: the text's bytes serve the header, the digest and, only when no
sidecar serves, the parse; the sidecar comes in one read, its header parsed
by NumPy once per distinct header, and its samples are taken from the bytes.

``fan_out`` runs a batch of independent file writes in forked worker
processes, one for each CPU the process may run on.  ``simulate`` and the
``detect``/``psd`` curve writers use it: their outputs are the same bytes with
one worker or many, and ``taskset -c 0`` runs them on one.
"""

import functools
import io
import math
import os
from collections import deque
from itertools import chain, islice, starmap
from pathlib import Path

import numpy as np

from .spectral import Signal, _checked_rate

__all__ = ["read_signal", "write_signal", "fmt", "fan_out"]

_SIDECAR_DIR = "__gwcache__"
# Bytes of the header length after the 8-byte magic, by .npy major version.
_NPY_LENGTH_WIDTH = {b"\x01": 2, b"\x02": 4}
# Tasks per round trip to a worker.  A trip costs the parent 0.1-0.2 ms, a
# large share of the ~0.7 ms that writing one 1001-row curve file takes, so
# single tasks would leave the workers waiting on the parent.
_CHUNK = 8
# Chunks per worker submitted and not yet collected: enough to keep every
# worker busy, few enough that memory does not grow with the task list.
_IN_FLIGHT = 2


def fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float (deterministic)."""
    return repr(float(x))


def write_signal(path, signal: Signal) -> None:
    path = Path(path)
    if "".join(signal.label.splitlines()) != signal.label:
        raise ValueError(f"{path}: label {signal.label!r} holds a line break")
    lines = [f"sample_rate,{fmt(signal.sample_rate)}", f"label,{signal.label}"]
    lines.extend(map(repr, signal.samples.tolist()))
    text = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(text)
    digest = _sha256(text)
    sidecar = _sidecar(path)
    sidecar.parent.mkdir(exist_ok=True)
    tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(digest)
            np.save(fh, signal.samples, allow_pickle=False)
        os.replace(tmp, sidecar)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_signal(path) -> Signal:
    """Read a signal file; a malformed one raises ValueError naming the file
    and, where it can be told, the line.

    The file is read once.  Its bytes give the header, the digest a sidecar
    must match and, only when no sidecar serves, the text that is parsed; the
    sidecar is read in one call as well."""
    path = Path(path)
    data = path.read_bytes()
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")  # decodes as it is read
    first = fh.readline().strip()
    second = fh.readline().strip()
    if not first.startswith("sample_rate,") or not second.startswith("label,"):
        raise ValueError(f"{path}: expected a two-line sample_rate/label header")
    rate = first.split(",", 1)[1]
    try:
        sample_rate = _checked_rate(rate)
    except ValueError:
        raise ValueError(f"{path}:1: sample_rate {rate!r} is not a finite number > 0") from None
    label = second.split(",", 1)[1]
    samples = _stored_samples(path, data)
    if samples is None:
        try:
            samples = np.loadtxt(fh, dtype=float, ndmin=1)
        except ValueError:
            samples = None
    if samples is None or not np.isfinite(samples).all():
        raise ValueError(f"{path}:{_bad_sample(data)} is not a finite number")
    try:
        return Signal(samples=samples, sample_rate=sample_rate, label=label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def fan_out(fn, tasks) -> list:
    """``[fn(*args) for args in tasks]``, computed in forked worker processes.

    ``fn`` must be a module-level function (it is pickled by name) and each
    result picklable.  Tasks go to the workers in chunks of ``_CHUNK``, at
    most ``_IN_FLIGHT`` chunks per worker ahead of the results collected, so
    ``tasks`` may be a generator that the parent keeps producing from while
    the workers run, and the tasks held at once do not grow with its length.
    Results come back in task order, and a task's exception is raised here
    with its type and message.

    There is one worker for each CPU this process may run on.  With one such
    CPU, where the platform cannot fork, or when the tasks fit in one chunk,
    the calls run here, in order.  Workers are forked, so they see the
    parent's modules as they are without importing anything; a task should
    use no native thread pool (BLAS), whose threads a fork does not copy.
    """
    workers = _usable_cpus()
    tasks = iter(tasks)
    chunk = list(islice(tasks, _CHUNK))
    if workers < 2 or len(chunk) < _CHUNK or not hasattr(os, "fork"):
        return list(starmap(fn, chain(chunk, tasks)))
    # imported on first use: they cost about 25 ms, which a command that
    # fans nothing out, or runs on one CPU, does not pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    results, pending = [], deque()
    alive = os.pipe()  # only this process keeps the write end open
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker, initargs=alive) as pool:
            while chunk:
                pending.append(pool.submit(_run_chunk, fn, chunk))
                if len(pending) == _IN_FLIGHT * workers:
                    results += pending.popleft().result()
                chunk = list(islice(tasks, _CHUNK))
            while pending:
                results += pending.popleft().result()
    finally:
        for fd in alive:
            os.close(fd)
    return results


def _run_chunk(fn, chunk: list) -> list:
    return list(starmap(fn, chunk))


def _start_worker(alive_r: int, alive_w: int) -> None:
    """Leave interrupts to the parent, which finishes the chunks in flight
    and then raises, and exit once the parent is gone (killed, say) instead
    of waiting for a task forever."""
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.close(alive_w)
    threading.Thread(target=_exit_with_parent, args=(alive_r,), daemon=True).start()


def _exit_with_parent(alive_r: int) -> None:
    os.read(alive_r, 1)  # returns at end of file: the parent's write end closed
    os._exit(1)


def _usable_cpus() -> int:
    """How many CPUs this process may run on (its affinity mask, where the
    platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sha256(data: bytes) -> bytes:
    # imported on first use: a dataset without sidecars is never hashed, and
    # the import costs about 5 ms of every process's start-up
    import hashlib

    return hashlib.sha256(data).digest()


def _sidecar(path: Path) -> Path:
    return path.parent / _SIDECAR_DIR / f"{path.name}.npy"


def _stored_samples(path: Path, text: bytes):
    """The samples ``write_signal`` stored beside ``path``, or ``None`` when
    there is no sidecar, it was written for other bytes than ``text``, the
    file's bytes now, or it does not hold a 1-D float64 ``.npy`` payload
    (version 1.0 or 2.0 header) in full."""
    try:
        # read into a buffer of our own: the samples are a writable view of
        # it, as the text path gives, without a copy
        with _sidecar(path).open("rb", buffering=0) as fh:
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            del raw[fh.readinto(raw):]
    except OSError:
        return None
    if raw[:32] != _sha256(text):
        return None
    width = _NPY_LENGTH_WIDTH.get(bytes(raw[38:39]))  # the major version byte
    if width is None:
        return None
    end = 40 + width + int.from_bytes(raw[40:40 + width], "little")
    try:
        shape, _, dtype = _npy_header(bytes(raw[32:end]))
        if dtype != np.float64 or len(shape) != 1 or shape[0] < 0:
            return None
        return np.frombuffer(raw, np.float64, shape[0], end)
    except ValueError:  # a malformed header, or fewer samples than it declares
        return None


@functools.lru_cache(maxsize=8)
def _npy_header(header: bytes) -> tuple:
    """``(shape, fortran_order, dtype)`` of an ``.npy`` header, parsed by
    NumPy once for each distinct header: the records of a dataset share a
    few.  The order is moot for the 1-D arrays a sidecar holds."""
    fh = io.BytesIO(header)
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(fh)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(fh)
    raise ValueError(f"unsupported .npy version {version}")


def _bad_sample(data: bytes) -> str:
    """Line number and text of the first sample of the file bytes ``data``
    that is not a finite number, with lines read as ``np.loadtxt`` reads them
    (``#`` comments and blank lines skipped)."""
    for ln, raw in enumerate(data.decode("utf-8").splitlines()[2:], start=3):
        text = raw.split("#", 1)[0].strip()
        try:
            if not text or math.isfinite(float(text)):
                continue
        except ValueError:
            pass
        return f"{ln}: sample {text!r}"
    return " a sample"
