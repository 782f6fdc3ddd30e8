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
line: ``write_signal`` refuses a label that holds a line break, has
whitespace at an end (the reader strips it) or does not encode as UTF-8,
before it writes anything.  Each sample
is written as CPython's ``repr`` writes it, the shortest decimal that reads
back as the same double.  ``write_signal`` makes that text with an array
kernel (``_shortrepr``), a block of samples at a time; the kernel covers
every finite double, subnormals and zeros of either sign among them, so no
sample falls back to ``repr`` itself.  A reader takes one number per line:
a line of two numbers, or one that only Python's ``float`` reads ("1_000",
digits other than ASCII ones), is an error naming that line.

The text file is the reference.  ``simulate`` also leaves the parsed samples
of a whole signals directory in one sample store,
``<dir>/__gwcache__/samples.gws``, written through ``SampleStore``.  All its
integers are 8 bytes little-endian and its samples little-endian float64
(``<f8`` on every host, so a store reads the same samples wherever it is
moved):

- a 24-byte header: the magic ``gwstore\x01`` (the last byte is the format
  version), the record count N and the total sample count T;
- an index of N 48-byte entries, one per record: the 32-byte SHA-256 of the
  record's text bytes, the offset of its samples in the store and their
  count, sorted by digest and, between equal digests, by offset;
- the samples of each record, in the order the records were written.

``read_signal`` hashes the text's bytes, finds the digest by a binary search
over the index (a few 48-byte reads, never the whole index), and takes the
samples from the store only while the magic matches, the store's size is
exactly 24 + 48N + 8T bytes and the entry's samples lie after the index and
inside the file.  In every other case, a missing, stale, truncated, padded
or foreign store among them, it parses the text, so deleting ``__gwcache__/``
is always safe.  It reads each text file once: its bytes serve the header,
the digest and, only when the store does not serve, the parse.  The store is
opened once per record, and the samples are read straight into the array
returned.  A temporary ``samples.gws.<pid>.tmp`` is never read, nor are the
per-file sidecars (``<file name>.f64``, ``.npy``) that older versions left.
The store is trusted as far as its directory is: the checks catch a damaged
store, not an index entry rewritten in place, and nothing in it is
unpickled.

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

__all__ = ["read_signal", "write_signal", "SampleStore", "fmt", "fan_out"]

_CACHE_DIR = "__gwcache__"
_STORE = "samples.gws"
_MAGIC = b"gwstore\x01"
_HEAD = 24   # magic, record count, total sample count
_ENTRY = 48  # digest, offset, sample count
# The smallest batch that forks.  A child costs a few ms to fork, exit and
# reap, against ~0.7 ms to write one whole-grid (1001-row) ``psd`` curve file.
_MIN_FORK = 8


def fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float (deterministic)."""
    return repr(float(x))


def _one_line(what: str, text: str) -> str:
    """``text``, refused if it would not read back from its line of a text
    file: files are written as UTF-8, and their readers end a line at LF or
    CR and strip the whitespace around a field."""
    if not isinstance(text, str):
        raise TypeError(f"{what} {text!r} is not a str")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{what} {text!r} does not encode as UTF-8") from None
    if "\n" in text or "\r" in text:
        raise ValueError(f"{what} {text!r} holds a line break")
    if text != text.strip():
        raise ValueError(f"{what} {text!r} has whitespace at an end")
    return text


def _utf8_text(path, data: bytes) -> str:
    """``data``, the bytes of the file ``path``, as text with LF line ends; a
    byte that does not decode as UTF-8 raises ValueError naming the file and
    the line of the first such byte.  A line ends at LF, CRLF or CR, as
    ``read_signal``'s text stream reads lines, and nowhere else: split the
    text at LF, not with ``str.splitlines``, which also splits at a form feed
    or U+2028."""
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 text") \
            from None


def write_signal(path, signal: Signal) -> bytes:
    """Write ``signal`` to the text file ``path`` and return the bytes
    written."""
    path = Path(path)
    if "".join(signal.label.splitlines()) != signal.label:
        raise ValueError(f"{path}: label {signal.label!r} holds a line break")
    _one_line(f"{path}: label", signal.label)
    # imported on first use: only ``simulate`` writes signals, and every
    # other command would pay its compile at start-up
    from ._shortrepr import repr_lines

    header = f"sample_rate,{fmt(signal.sample_rate)}\nlabel,{signal.label}\n"
    text = header.encode("utf-8") + repr_lines(signal.samples)
    path.write_bytes(text)
    return text


class SampleStore:
    """The sample store of the signals directory ``directory``, being written:
    record ``i`` has ``counts[i]`` samples.

    It is made as ``<store>.<pid>.tmp``, sized for every record, and filled
    by ``put``, which writes at fixed offsets with ``os.pwrite``: the
    processes that ``fan_out`` forks inherit its descriptor and fill their own
    records without moving a shared file offset.  Leaving the ``with`` block
    normally sorts the index and renames the file into place; leaving it by
    an error (a failed task, a killed worker) removes it, and the directory
    keeps whatever store it had.  Its bytes depend only on what is put in
    it, not on which process put it.
    """

    def __init__(self, directory, counts):
        self.counts = [int(n) for n in counts]
        self.path = Path(directory) / _CACHE_DIR / _STORE
        self.path.parent.mkdir(exist_ok=True)
        self.tmp = self.path.with_name(f"{_STORE}.{os.getpid()}.tmp")
        self.offsets = [_HEAD + _ENTRY * len(self.counts)]
        for n in self.counts:
            self.offsets.append(self.offsets[-1] + 8 * n)
        size = self.offsets.pop()  # where the last record's samples end
        self.fd = os.open(self.tmp, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            os.ftruncate(self.fd, size)
            _pwrite(self.fd, _MAGIC + _u64(len(self.counts)) + _u64(sum(self.counts)), 0)
        except BaseException:
            self._discard()
            raise

    def put(self, i: int, text: bytes, samples) -> None:
        """Store record ``i``'s samples under the digest of ``text``, the
        bytes of its signal file."""
        samples = np.ascontiguousarray(samples, "<f8")
        if samples.shape != (self.counts[i],):
            raise ValueError(f"record {i} has {samples.size} samples, "
                             f"not the {self.counts[i]} the store was sized for")
        _pwrite(self.fd, samples, self.offsets[i])
        _pwrite(self.fd, _sha256(text) + _u64(self.offsets[i]) + _u64(samples.size),
                _HEAD + _ENTRY * i)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None:
            self._discard()
            return
        try:
            index = os.pread(self.fd, _ENTRY * len(self.counts), _HEAD)
            entries = sorted((index[k:k + _ENTRY] for k in range(0, len(index), _ENTRY)),
                             key=lambda e: (e[:32], int.from_bytes(e[32:40], "little")))
            _pwrite(self.fd, b"".join(entries), _HEAD)
            os.close(self.fd)
            self.fd = None
            os.replace(self.tmp, self.path)
        except BaseException:
            self._discard()
            raise

    def _discard(self):
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        self.tmp.unlink(missing_ok=True)


def read_signal(path) -> Signal:
    """Read a signal file; a malformed one raises ValueError naming the file
    and, where it can be told, the line.

    The file is read once.  Its bytes give the header, the digest looked up
    in the directory's sample store and, only when the store does not serve,
    the text that is parsed."""
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
    # imported on first use: a dataset without a store is never hashed, and
    # the import costs about 5 ms of every process's start-up
    import hashlib

    return hashlib.sha256(data).digest()


def _u64(n: int) -> bytes:
    return n.to_bytes(8, "little")


def _pwrite(fd: int, data, offset: int) -> None:
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def _stored_samples(path: Path, text: bytes):
    """The samples the sample store beside ``path`` holds for ``text``, the
    file's bytes now, or ``None`` when there is no store, it does not pass
    the layout checks, or it holds nothing for these bytes."""
    try:
        with open(path.parent / _CACHE_DIR / _STORE, "rb", buffering=0) as fh:
            return _lookup(fh, _sha256(text))
    except OSError:
        return None


def _lookup(fh, digest: bytes):
    fd = fh.fileno()
    size = os.fstat(fd).st_size
    head = os.pread(fd, _HEAD, 0)
    if len(head) != _HEAD or head[:8] != _MAGIC:
        return None
    n, total = (int.from_bytes(head[k:k + 8], "little") for k in (8, 16))
    start = _HEAD + _ENTRY * n
    if size != start + 8 * total:
        return None
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        entry = os.pread(fd, _ENTRY, _HEAD + _ENTRY * mid)
        if entry[:32] == digest:
            break
        lo, hi = (mid + 1, hi) if entry[:32] < digest else (lo, mid)
    else:
        return None
    offset, count = (int.from_bytes(entry[k:k + 8], "little") for k in (32, 40))
    if count == 0 or offset < start or offset + 8 * count > size:
        return None
    # read into an array of our own: writable, as the text path gives
    samples = np.empty(count, "<f8")
    fh.seek(offset)
    if fh.readinto(samples) != samples.nbytes:
        return None
    return samples


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
    lines = _utf8_text(path, data).split("\n")
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
