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
every other case, so deleting a sidecar is always safe.
"""

import math
import os
from pathlib import Path

import numpy as np

from .spectral import Signal

__all__ = ["read_signal", "write_signal", "fmt"]

_SIDECAR_DIR = "__gwcache__"


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
    and, where it can be told, the line."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        first = fh.readline().strip()
        second = fh.readline().strip()
        if not first.startswith("sample_rate,") or not second.startswith("label,"):
            raise ValueError(f"{path}: expected a two-line sample_rate/label header")
        rate = first.split(",", 1)[1]
        try:
            sample_rate = float(rate)
        except ValueError:
            raise ValueError(f"{path}:1: sample_rate {rate!r} is not a number") from None
        label = second.split(",", 1)[1]
        samples = _stored_samples(path)
        if samples is None:
            try:
                samples = np.loadtxt(fh, dtype=float, ndmin=1)
            except ValueError:
                samples = None
    if samples is None or not np.isfinite(samples).all():
        raise ValueError(f"{path}:{_bad_sample(path)} is not a finite number")
    try:
        return Signal(samples=samples, sample_rate=sample_rate, label=label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _sha256(data: bytes) -> bytes:
    # imported on first use: a dataset without sidecars is never hashed, and
    # the import costs about 5 ms of every process's start-up
    import hashlib

    return hashlib.sha256(data).digest()


def _sidecar(path: Path) -> Path:
    return path.parent / _SIDECAR_DIR / f"{path.name}.npy"


def _stored_samples(path: Path):
    """The samples ``write_signal`` stored beside ``path``, or ``None`` when
    there is no sidecar, it was written for other bytes than the file holds
    now, or it is unreadable or not a 1-D float64 array."""
    try:
        fh = _sidecar(path).open("rb")
    except OSError:
        return None
    with fh:
        if fh.read(32) != _sha256(path.read_bytes()):
            return None
        try:
            samples = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError:
            return None
    if samples.dtype != np.float64 or samples.ndim != 1:
        return None
    return samples


def _bad_sample(path: Path) -> str:
    """Line number and text of the first sample that is not a finite number,
    with lines read as ``np.loadtxt`` reads them (``#`` comments and blank
    lines skipped)."""
    for ln, raw in enumerate(path.read_text(encoding="utf-8").splitlines()[2:], start=3):
        text = raw.split("#", 1)[0].strip()
        try:
            if not text or math.isfinite(float(text)):
                continue
        except ValueError:
            pass
        return f"{ln}: sample {text!r}"
    return " a sample"
