"""Signal-file I/O.

A signal file is a one-column CSV of volt samples with a two-line header::

    sample_rate,<Hz>
    label,<free text>
    <sample>
    ...

Decimal point is ``.``, separator is ``,``, line endings are LF, and the
text is UTF-8; a byte that does not decode is an error that names the file
and its line.  ``read_signal`` takes LF, CRLF and CR as line ends, in any
mix, and counts lines the same way when it names one.  The label is one
line: ``write_signal`` refuses a label that holds a line break.  Each sample
is written as CPython's ``repr`` writes it, the shortest decimal that reads
back as the same double.  ``write_signal`` makes that text with an array
kernel (``_shortrepr``), a block of samples at a time; the kernel covers
every finite double, subnormals and zeros of either sign among them, so no
sample falls back to ``repr`` itself.  A reader takes one number per line:
a line of two numbers, or one that only Python's ``float`` reads ("1_000",
digits other than ASCII ones), is an error naming that line.

The text file is the reference.  ``write_signal`` also leaves its parsed form
in ``<dir>/__gwcache__/<file name>.f64``: the 32-byte SHA-256 of the text
bytes, the sample count n as 8 bytes little-endian, then the n samples as
little-endian float64 (``<f8`` on every host, so a sidecar reads the same
samples wherever it is moved).  ``read_signal`` takes the samples from a
sidecar only while its digest matches the file's current bytes and its
length is exactly 40 + 8n, and parses the text in every other case, so
deleting a sidecar is always safe.  It reads each file once: the text's
bytes serve the header, the digest and, only when no sidecar serves, the
parse; the sidecar comes in one read, and its samples are a view of the
bytes read.

``fan_out`` runs a batch of independent file writes as a fork-join over the
CPUs the process may run on: the process forks one child for each other CPU,
writes its own share of the files, and then collects the children's results.
``simulate`` and the ``psd`` curve writer use it: their outputs are the
same bytes with one process or many, and ``taskset -c 0`` runs them all in
the calling process.
"""

import io
import math
import os
import pickle
import sys
import warnings
from itertools import starmap
from pathlib import Path

import numpy as np

from .spectral import Signal, _checked_rate

__all__ = ["read_signal", "write_signal", "fmt", "fan_out"]

_SIDECAR_DIR = "__gwcache__"
# The smallest batch that forks.  A child costs a few ms to fork, exit and
# reap, against ~0.7 ms to write one whole-grid (1001-row) ``psd`` curve file.
_MIN_FORK = 8


def fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float (deterministic)."""
    return repr(float(x))


def _utf8_text(path, data: bytes) -> str:
    """``data``, the bytes of the file ``path``, as text; a byte that does not
    decode as UTF-8 raises ValueError naming the file and the line of the
    first such byte.  A line ends at LF, CRLF or CR, as ``read_signal``'s
    text stream reads lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 text") \
            from None


def write_signal(path, signal: Signal) -> None:
    path = Path(path)
    if "".join(signal.label.splitlines()) != signal.label:
        raise ValueError(f"{path}: label {signal.label!r} holds a line break")
    # imported on first use: only ``simulate`` writes signals, and every
    # other command would pay its compile at start-up
    from ._shortrepr import repr_lines

    header = f"sample_rate,{fmt(signal.sample_rate)}\nlabel,{signal.label}\n"
    text = header.encode("utf-8") + repr_lines(signal.samples)
    path.write_bytes(text)
    digest = _sha256(text)
    sidecar = _sidecar(path)
    sidecar.parent.mkdir(exist_ok=True)
    tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(digest)
            fh.write(len(signal).to_bytes(8, "little"))
            signal.samples.astype("<f8", copy=False).tofile(fh)
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
    try:
        first = fh.readline().strip()
        second = fh.readline().strip()
    except UnicodeDecodeError:  # in the first block read, which may reach the samples
        _utf8_text(path, data)  # raises, naming the line
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
        samples = _parsed_samples(path, fh, data)
    try:
        return Signal(samples=samples, sample_rate=sample_rate, label=label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def fan_out(fn, tasks) -> list:
    """``[fn(*args) for args in tasks]``, computed in forked worker processes
    and in this one.

    ``tasks`` is made a list here, before any fork.  With ``n`` usable CPUs,
    ``n - 1`` children are forked; child ``k`` runs tasks ``k, k + n, ...``
    and this process runs tasks ``0, n, ...`` meanwhile.  A child inherits
    ``fn`` and the tasks as they are, so nothing is pickled on the way in and
    ``fn`` may be any callable; only each child's results (or its first
    error) come back, pickled through a pipe of its own.  Results come back in
    task order.  When tasks fail, the error of the lowest task index is
    raised here with its type and message; a child that ends without sending
    its results raises ``RuntimeError`` naming its exit status.

    With one usable CPU, where the platform cannot fork, or when there are
    fewer than ``_MIN_FORK`` tasks, the calls run here, in order.  Children
    are forked, not spawned: they see the parent's modules as they are
    without importing anything (a spawned worker re-imports NumPy).  A task
    should use no native thread pool (BLAS), whose threads a fork does not
    copy.
    """
    tasks = list(tasks)
    n = min(_usable_cpus(), len(tasks))
    if n < 2 or len(tasks) < _MIN_FORK or not hasattr(os, "fork"):
        return list(starmap(fn, tasks))
    # a child would print again what this process left in its buffers
    sys.stdout.flush()
    sys.stderr.flush()
    alive = os.pipe()  # only this process keeps the write end open
    children = []      # (pid, read end of the child's result pipe)
    try:
        for k in range(1, n):
            readable, writable = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(readable)
                os.close(writable)
                raise
            if pid == 0:
                _serve_share(fn, tasks, k, n, writable, alive,
                             [readable, *(fd for _, fd in children)])
            os.close(writable)
            children.append((pid, readable))
        shares = [_run_share(fn, tasks, 0, n)]
    finally:
        try:
            ended = [_join(pid, fd) for pid, fd in children]
        finally:
            # held until every child is reaped: a child exits once it closes
            for fd in alive:
                os.close(fd)
    shares += (_received(k, *end) for k, end in enumerate(ended, start=1))
    failed = [share for share in shares if share[0] is not None]
    if failed:
        raise min(failed, key=lambda share: share[0])[1]
    results = [None] * len(tasks)
    for k, (_, values) in enumerate(shares):
        results[k::n] = values
    return results


def _run_share(fn, tasks: list, k: int, n: int) -> tuple:
    """``(None, results)`` of tasks ``k, k + n, ...``, or ``(index, error)``
    of the first of them that raises."""
    results = []
    for i in range(k, len(tasks), n):
        try:
            results.append(fn(*tasks[i]))
        except Exception as exc:
            return i, exc
    return None, results


def _serve_share(fn, tasks: list, k: int, n: int, out_fd: int, alive: tuple,
                 inherited: list) -> None:
    """The life of child ``k``: run its share, write it to ``out_fd`` as one
    pickle, and leave by ``os._exit``, never returning into the parent's
    code.  Interrupts are left to the parent, which waits for its children and
    then raises; the child exits once the parent is gone (killed, say)
    instead of writing on for nobody."""
    # the C module under ``signal``, loaded at start-up: importing ``signal``
    # itself would build its enums in every child, about 3 ms each
    import _signal
    import threading

    status = 1
    try:
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        for fd in (alive[1], *inherited):
            os.close(fd)
        threading.Thread(target=_exit_with_parent, args=(alive[0],), daemon=True).start()
        share = _run_share(fn, tasks, k, n)
        try:
            data = pickle.dumps(share)
        except Exception as exc:  # a result or an error that cannot be pickled
            data = pickle.dumps((share[0] if share[0] is not None else k,
                                 RuntimeError(f"a task's outcome cannot be sent back: {exc}")))
        with open(out_fd, "wb") as fh:
            fh.write(data)
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)


def _exit_with_parent(alive_r: int) -> None:
    os.read(alive_r, 1)  # returns at end of file: the parent's write end closed
    os._exit(1)


def _join(pid: int, fd: int) -> tuple:
    """``(pid, exit code, bytes sent)`` of a child: its pipe is read to end
    of file before the child is reaped, so a child never blocks on a full
    pipe that nobody reads."""
    with open(fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    return pid, os.waitstatus_to_exitcode(status), data


def _received(k: int, pid: int, code: int, data: bytes) -> tuple:
    """Child ``k``'s share as ``_run_share`` gives it.  Only bytes a child of
    this process wrote are unpickled."""
    if code != 0 or not data:
        return k, RuntimeError(f"worker process {pid} ended with exit status {code} "
                               "before it sent its results")
    return pickle.loads(data)


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
    return path.parent / _SIDECAR_DIR / f"{path.name}.f64"


def _stored_samples(path: Path, text: bytes):
    """The samples ``write_signal`` stored beside ``path``, or ``None`` when
    there is no sidecar, its length is not that of the samples it counts, or
    it was written for other bytes than ``text``, the file's bytes now."""
    try:
        # read into a buffer of our own: the samples are a writable view of
        # it, as the text path gives, without a copy
        with _sidecar(path).open("rb", buffering=0) as fh:
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            del raw[fh.readinto(raw):]
    except OSError:
        return None
    n = int.from_bytes(raw[32:40], "little")
    if len(raw) != 40 + 8 * n or raw[:32] != _sha256(text):
        return None
    return np.frombuffer(raw, "<f8", offset=40)


def _parsed_samples(path, fh, data: bytes):
    """The samples of the text of ``path``, read from ``fh`` past the header;
    ``data`` is the file's bytes, for naming the line of a bad sample."""
    with warnings.catch_warnings():
        # a file with no samples is refused below, by name
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(fh, dtype=float, ndmin=2)
        except ValueError:  # UnicodeDecodeError among them
            table = None
    if table is not None and table.size == 0:
        raise ValueError(f"{path}: no samples after the two-line header")
    # a line of two numbers makes a second column
    if table is None or table.shape[1] != 1 or not np.isfinite(table).all():
        raise ValueError(f"{path}:{_bad_sample(path, data)} is not a finite number")
    return table[:, 0]


def _bad_sample(path, data: bytes) -> str:
    """Line number and text of the first sample of the file bytes ``data``
    that is not one finite number as ``np.loadtxt`` reads it, with lines read
    as it reads them (``#`` comments and blank lines skipped); bytes that are
    not UTF-8 raise as ``_utf8_text`` raises."""
    # a line ends only at \n, \r\n or \r, as the reader's text stream splits
    # lines; ``str.splitlines`` would also split at a form feed or U+2028
    lines = _utf8_text(path, data).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for ln, raw in enumerate(lines[2:], start=3):
        text = raw.split("#", 1)[0].strip()
        try:
            # ``float`` also takes "1_000" and digits other than ASCII ones
            if not text or (text.isascii() and "_" not in text
                            and math.isfinite(float(text))):
                continue
        except ValueError:
            pass
        return f"{ln}: sample {text!r}"
    return " a sample"
