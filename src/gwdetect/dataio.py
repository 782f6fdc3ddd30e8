"""Signal-file I/O.

A signal file is a one-column CSV of volt samples with a two-line header::

    sample_rate,<Hz>
    label,<free text>
    <sample>
    ...

Decimal point is ``.``, separator is ``,``, line endings are LF.
"""

import math
from pathlib import Path

import numpy as np

from .spectral import Signal

__all__ = ["read_signal", "write_signal", "fmt"]


def fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float (deterministic)."""
    return repr(float(x))


def write_signal(path, signal: Signal) -> None:
    path = Path(path)
    lines = [f"sample_rate,{fmt(signal.sample_rate)}", f"label,{signal.label}"]
    lines.extend(map(repr, signal.samples.tolist()))
    path.write_text("\n".join(lines) + "\n")


def read_signal(path) -> Signal:
    """Read a signal file; a malformed one raises ValueError naming the file
    and, where it can be told, the line."""
    path = Path(path)
    with path.open() as fh:
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


def _bad_sample(path: Path) -> str:
    """Line number and text of the first sample that is not a finite number,
    with lines read as ``np.loadtxt`` reads them (``#`` comments and blank
    lines skipped)."""
    for ln, raw in enumerate(path.read_text().splitlines()[2:], start=3):
        text = raw.split("#", 1)[0].strip()
        try:
            if not text or math.isfinite(float(text)):
                continue
        except ValueError:
            pass
        return f"{ln}: sample {text!r}"
    return " a sample"
