"""The array kernel that writes signal samples, checked byte for byte against
CPython's ``repr``, which stays the reference."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwdetect._shortrepr import _BLOCK, repr_lines
from gwdetect.dataio import read_signal
from gwdetect.simulate import DamageSpec, synth_dataset

# the ends of each binade class: zeros, the smallest and largest subnormal,
# the smallest normal, the largest finite, and 1.0's neighbours
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.225073858507201e-308,
         2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
         1.0, 0.9999999999999999, 1.0000000000000002]


def oracle(x) -> bytes:
    return ("\n".join(map(repr, np.asarray(x, dtype=float).tolist())) + "\n").encode()


def neighbours(x, steps: int):
    """``x`` and the doubles up to ``steps`` places above and below each value."""
    out = [x]
    up = down = x
    for _ in range(steps):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EDGES)), min_size=1, max_size=40))
def test_matches_repr_on_any_finite_values(values):
    assert repr_lines(np.array(values, dtype=float)) == oracle(values)


def sweep(seed: int):
    """About 10**6 doubles, half of them negative: random bit patterns (some
    of them subnormal), decimals with 1 to 15 digits and their neighbours,
    every power of ten and of two, and the neighbourhoods of 1e-4 and 1e16,
    where ``repr`` changes notation."""
    rng = np.random.default_rng(seed)
    bits = np.concatenate([rng.integers(0, 0x7FF0_0000_0000_0000, 100_000, dtype=np.uint64),
                           rng.integers(1, 1 << 52, 10_000, dtype=np.uint64)])  # subnormal
    digits = rng.integers(1, 16, 300_000)
    mantissa = rng.integers(10 ** (digits - 1), 10 ** digits).astype(float)  # exact
    exponent = rng.integers(-22, 23, mantissa.size)
    # one correctly rounded operation with exact operands: the double nearest
    # mantissa * 10**exponent
    decimals = np.where(exponent < 0, mantissa / 10.0 ** -exponent, mantissa * 10.0 ** exponent)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    switch = np.array([1e-4, 1e16])
    x = np.concatenate([bits.view(np.float64), neighbours(decimals, 1),
                        neighbours(tens, 2), neighbours(twos, 2),
                        neighbours(switch, 2_000)])
    sign = rng.integers(0, 2, x.size).astype(bool)
    return np.where(sign, -x, x)


def test_matches_repr_on_a_seeded_sweep():
    x = sweep(2020)
    assert x.size >= 10 ** 6 and np.isfinite(x).all()
    # compared in slices, so that a failure names few values
    for start in range(0, x.size, 100_000):
        part = x[start:start + 100_000]
        got = repr_lines(part)
        if got != oracle(part):
            bad = [(a, b) for a, b in zip(got.split(b"\n"), oracle(part).split(b"\n"))
                   if a != b]
            pytest.fail(f"{len(bad)} values differ from repr, such as {bad[:5]}")


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17])
def test_block_edges(size):
    x = np.random.default_rng(size).standard_normal(size) * 1e-3
    assert repr_lines(x) == oracle(x)


def test_no_values_make_no_lines():
    assert repr_lines(np.array([])) == b""


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_refuses_values_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        repr_lines(np.array([1.0, bad]))


def test_synthetic_records_are_header_plus_repr(tmp_path):
    manifest = synth_dataset(tmp_path, n_baseline=2, n_samples=3000, seed=3,
                             damage_specs=[DamageSpec(attenuation=0.5, label="att")])
    for entry in manifest.entries:
        path = tmp_path / entry.file
        signal = read_signal(path)
        header = f"sample_rate,{signal.sample_rate!r}\nlabel,{signal.label}\n".encode()
        assert path.read_bytes() == header + oracle(signal.samples)
    quiet = synth_dataset(tmp_path / "quiet", n_baseline=2, n_samples=3000, noise_std=0.0)
    samples = read_signal(tmp_path / "quiet" / quiet.entries[0].file).samples
    assert (samples == 0.0).any()
    assert (tmp_path / "quiet" / quiet.entries[0].file).read_bytes().endswith(
        oracle(samples))


def test_cli_start_up_does_not_import_the_kernel():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, gwdetect.cli; print('gwdetect._shortrepr' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    assert out.stdout.strip() == "False"
