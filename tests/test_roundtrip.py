"""Write-then-read round trips of the three text formats: signal files,
dataset manifests and detection reports.  Signal files are read both through
the binary sidecar that ``write_signal`` leaves and from the text alone.

Ids and labels are drawn from ``[A-Za-z0-9._-]``: both readers strip the
whitespace around a field, and ``,``/``=``/``#`` are format syntax.
"""

import hashlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwdetect.dataio import read_signal, write_signal
from gwdetect.pipeline import (
    METRICS,
    DatasetManifest,
    DetectionReport,
    ManifestEntry,
)
from gwdetect.spectral import Signal, WelchConfig

NAME = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-",
               min_size=1, max_size=12)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=60, deadline=None)
@given(samples=st.lists(FINITE, min_size=1, max_size=40), rate=POSITIVE,
       label=st.one_of(st.just(""), NAME))
def test_signal_file_roundtrip_is_exact(samples, rate, label):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sig.csv"
        write_signal(path, Signal(samples, rate, label))
        stored = read_signal(path)
        sidecar(path).unlink()
        parsed = read_signal(path)
    for back in (stored, parsed):
        assert back.samples.tobytes() == np.asarray(samples, dtype=float).tobytes()
        assert back.sample_rate == rate and back.label == label


@pytest.mark.parametrize("label", ["a\n1.5", "a\r1.5", "a\r\n", "\n", "a\u2028b", "a\x85"])
def test_signal_label_with_a_line_break_is_refused_before_writing(tmp_path, label):
    """A label is one header line; one that breaks would read back as a sample
    or a shorter label, so the text and the sidecar would disagree."""
    path = tmp_path / "sig.csv"
    with pytest.raises(ValueError, match="holds a line break"):
        write_signal(path, Signal([1.0, 2.0], 10.0, label))
    assert list(tmp_path.iterdir()) == []


def sidecar(path: Path) -> Path:
    return path.parent / "__gwcache__" / f"{path.name}.f64"


def test_signal_file_edits_win_over_a_stale_sidecar(tmp_path):
    """The text is the reference: an edited sample reads as its new value, and
    a sample that is not a number gives the same error with a stale sidecar
    as without one.  That includes text that Python's ``float`` takes but
    ``np.loadtxt`` refuses (an underscore, digits other than ASCII ones), and
    a line of two numbers."""
    path = tmp_path / "sig.csv"
    write_signal(path, Signal([1.0, 2.0, 3.0], 10.0, "x"))
    text = path.read_text()
    path.write_text(text.replace("\n2.0\n", "\n2.5\n"))
    assert read_signal(path).samples.tolist() == [1.0, 2.5, 3.0]
    stored = sidecar(path).read_bytes()
    for bad in ["abc", "1_000", "\uff11.\uff15", "\u0661\u0662", "1.0 2.0", "1.0,2.0"]:
        sidecar(path).write_bytes(stored)
        path.write_text(text.replace("\n2.0\n", f"\n{bad}\n"))
        with pytest.raises(ValueError) as stale:
            read_signal(path)
        sidecar(path).unlink()
        with pytest.raises(ValueError) as plain:
            read_signal(path)
        assert str(stale.value) == str(plain.value) == \
            f"{path}:4: sample {bad!r} is not a finite number"


@pytest.mark.parametrize("body, line, text", [
    ("1.0 2.0\n", 3, "1.0 2.0"),
    ("1.0 2.0\n3.0 4.0\n", 3, "1.0 2.0"),
    ("# c\n1.0\t2.0\n3.0 4.0\n", 4, "1.0\t2.0"),
])
def test_a_sample_line_of_two_numbers_is_refused(tmp_path, body, line, text):
    """Whitespace splits a line into columns: a line of two numbers is
    refused, naming the first such line, whether it is the only sample line,
    or every sample line holds two numbers."""
    path = tmp_path / "sig.csv"
    path.write_text("sample_rate,10.0\nlabel,x\n" + body)
    with pytest.raises(ValueError) as err:
        read_signal(path)
    assert str(err.value) == f"{path}:{line}: sample {text!r} is not a finite number"


@pytest.mark.parametrize("body", ["1.0\x0c\nabc\n", "1.0\u2028\nabc\n", "1.0\r\nabc\r\n",
                                  "1.0\rabc\r"])
def test_a_bad_sample_is_named_by_its_line_end_count(tmp_path, body):
    """Lines end at LF, CRLF or CR, as the text is read; a form feed or
    U+2028 inside a line is whitespace, not a line end."""
    path = tmp_path / "sig.csv"
    path.write_bytes(b"sample_rate,10.0\nlabel,x\n" + body.encode())
    with pytest.raises(ValueError) as err:
        read_signal(path)
    assert str(err.value) == f"{path}:4: sample 'abc' is not a finite number"


@pytest.mark.parametrize("head", [b"sample_rate,10.0\rlabel,x\r1.0\r2.0\r",
                                  b"sample_rate,10.0\r\nlabel,x\r\n1.0\r\n2.0\r\n",
                                  b"sample_rate,10.0\nlabel,x\r1.0\r\n2.0\n",
                                  "sample_rate,10.0\nlabel,x\n1.0\f\n2.0\u2028\n".encode()])
def test_a_byte_that_is_not_utf8_is_named_by_its_line_end_count(tmp_path, head):
    """A bad byte is named by the line it is on, lines ending at LF, CRLF or
    CR in any mix, as the samples are read; a form feed or U+2028 is not a
    line end."""
    path = tmp_path / "sig.csv"
    path.write_bytes(head + b"\xff\r")
    with pytest.raises(ValueError) as err:
        read_signal(path)
    assert str(err.value) == f"{path}:5: byte 0xff is not UTF-8 text"


@pytest.mark.parametrize("body", ["", "\n", "# no samples\n\n"])
def test_a_header_without_samples_is_refused_without_a_warning(tmp_path, body):
    path = tmp_path / "sig.csv"
    path.write_text("sample_rate,10.0\nlabel,x\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            read_signal(path)
    assert str(err.value) == f"{path}: no samples after the two-line header"


def _sidecar_bytes(digest: bytes, samples) -> bytes:
    samples = np.asarray(samples, "<f8")
    return digest + samples.size.to_bytes(8, "little") + samples.tobytes()


SAMPLES = np.array([0.5, -1.25, 3e-300])


@pytest.mark.parametrize("damage", [
    pytest.param(lambda digest, body: b"", id="empty"),
    pytest.param(lambda digest, body: digest[:20], id="short-digest"),
    pytest.param(lambda digest, body: digest, id="digest-only"),
    pytest.param(lambda digest, body: digest + body[:4], id="truncated-header"),
    pytest.param(lambda digest, body: digest + body[:8], id="count-only"),
    pytest.param(lambda digest, body: digest + body[:-8], id="truncated-data"),
    pytest.param(lambda digest, body: digest + body + b"\x00", id="trailing-byte"),
    pytest.param(lambda digest, body: digest + body + b"\x00" * 8, id="trailing-bytes"),
    pytest.param(lambda digest, body: digest + (4).to_bytes(8, "little") + body[8:],
                 id="count-too-large"),
    pytest.param(lambda digest, body: digest + b"garbage" * 30, id="garbage-payload"),
    pytest.param(lambda digest, body: b"garbage" * 30, id="garbage"),
    pytest.param(lambda digest, body: _sidecar_bytes(bytes(32), np.zeros(3)), id="wrong-digest"),
])
def test_unusable_sidecar_falls_back_to_the_text(tmp_path, damage):
    """A sidecar is read or passed over, never trusted into other samples."""
    path = tmp_path / "sig.csv"
    write_signal(path, Signal(SAMPLES, 10.0, "x"))
    raw = sidecar(path).read_bytes()
    assert raw == _sidecar_bytes(hashlib.sha256(path.read_bytes()).digest(), SAMPLES)
    sidecar(path).write_bytes(damage(raw[:32], raw[32:]))
    assert read_signal(path).samples.tobytes() == SAMPLES.tobytes()


def test_a_sidecar_under_the_old_npy_name_is_not_read(tmp_path):
    """An ``.npy`` sidecar that an older version left, even one whose digest
    matches the text, is never opened: the text is parsed instead."""
    path = tmp_path / "sig.csv"
    write_signal(path, Signal(SAMPLES, 10.0, "x"))
    digest = sidecar(path).read_bytes()[:32]
    sidecar(path).unlink()
    buf = io.BytesIO()
    np.save(buf, np.zeros(3), allow_pickle=False)
    old = path.parent / "__gwcache__" / f"{path.name}.npy"
    old.write_bytes(digest + buf.getvalue())
    assert read_signal(path).samples.tobytes() == SAMPLES.tobytes()
    assert old.read_bytes() == digest + buf.getvalue()


@st.composite
def manifests(draw):
    baseline = draw(NAME)
    rows = draw(st.lists(st.tuples(NAME, st.one_of(st.just(baseline), NAME), NAME, NAME),
                         min_size=1, max_size=8))
    # validate() wants a baseline entry on every path
    rows += [(f"base-{p}.csv", baseline, p, s) for _, _, p, s in rows]
    windows = draw(st.dictionaries(NAME, st.tuples(st.integers(0, 10**6),
                                                   st.integers(1, 10**6)), max_size=3))
    band = draw(st.one_of(st.none(), st.tuples(FINITE, FINITE)))
    return DatasetManifest(entries=[ManifestEntry(*r) for r in rows],
                           sample_rate=draw(POSITIVE), baseline_label=baseline,
                           packet_windows=windows, band=band)


@settings(max_examples=60, deadline=None)
@given(man=manifests())
def test_manifest_roundtrip(man):
    with tempfile.TemporaryDirectory() as tmp:
        path = man.save(Path(tmp) / "manifest.csv")
        back = DatasetManifest.load(path)
        again = back.save(Path(tmp) / "again.csv")
        assert again.read_text() == path.read_text()
    assert back.entries == man.entries
    assert back.sample_rate == man.sample_rate
    assert back.baseline_label == man.baseline_label
    assert back.packet_windows == man.packet_windows
    assert back.band == man.band


@st.composite
def welch_configs(draw):
    length = draw(st.integers(10, 64))  # keeps the hop >= 1 at overlap 0.9
    return WelchConfig(segment_length=length,
                       overlap_fraction=draw(st.floats(0.0, 0.9)),
                       nfft=draw(st.integers(length, 256)),
                       window_kind=draw(st.sampled_from(["hamming", "bartlett", "rectangular"])),
                       detrend_mean=draw(st.booleans()))


@st.composite
def counts(draw):
    cases = draw(st.integers(0, 10**6))
    return draw(st.integers(0, cases)), cases


@st.composite
def reports(draw):
    labels = tuple(draw(st.lists(NAME, unique=True, max_size=4)))
    metrics = draw(st.lists(st.sampled_from(METRICS), unique=True, min_size=1))
    rows = {(metric, label): draw(counts())
            for metric in metrics for label in (None, *labels)}
    return DetectionReport(
        path=draw(NAME), window=draw(NAME),
        alpha=draw(st.floats(min_value=1e-12, max_value=1.0)), counts=rows,
        holdout=draw(st.integers(0, 1000)),
        m_by_set=draw(st.dictionaries(NAME, st.integers(0, 1000), max_size=3)),
        band=draw(st.one_of(st.none(), st.tuples(FINITE, FINITE))),
        welch=draw(welch_configs()))


@settings(max_examples=60, deadline=None)
@given(report=reports())
def test_report_csv_roundtrip_reproduces_text(report):
    text = report.to_csv()
    back = DetectionReport.from_csv(text)
    assert back.to_csv() == text
    assert (back.path, back.window, back.alpha, back.holdout, back.m_by_set, back.band,
            back.welch) == (report.path, report.window, report.alpha, report.holdout,
                            report.m_by_set, report.band, report.welch)
    assert list(back.counts.items()) == list(report.counts.items())
    assert back == report
