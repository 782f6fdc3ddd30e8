"""Write-then-read round trips of the three text formats: signal files,
dataset manifests and detection reports.  Signal files are read both through
the sample store that ``simulate`` leaves beside them and from the text
alone.

Ids and labels are drawn from ``[A-Za-z0-9._-]``: both readers strip the
whitespace around a field, and ``,``/``=``/``#`` are format syntax.
"""

import hashlib
import io
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwdetect.dataio as dataio
from gwdetect.dataio import SampleStore, read_signal, write_signal
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
        write_stored(path, Signal(samples, rate, label))
        with mock.patch.object(dataio, "_parsed_samples", side_effect=AssertionError):
            stored = read_signal(path)
        store(path).unlink()
        parsed = read_signal(path)
    for back in (stored, parsed):
        assert back.samples.tobytes() == np.asarray(samples, dtype=float).tobytes()
        assert back.sample_rate == rate and back.label == label


@pytest.mark.parametrize("label", ["a\n1.5", "a\r1.5", "a\r\n", "\n", "a\u2028b", "a\x85"])
def test_signal_label_with_a_line_break_is_refused_before_writing(tmp_path, label):
    """A label is one header line; one that breaks would read back as a sample
    or a shorter label, so the text and the store would disagree."""
    path = tmp_path / "sig.csv"
    with pytest.raises(ValueError, match="holds a line break"):
        write_signal(path, Signal([1.0, 2.0], 10.0, label))
    assert list(tmp_path.iterdir()) == []


def store(path: Path) -> Path:
    return path.parent / "__gwcache__" / "samples.gws"


def write_stored(path: Path, *signals) -> list:
    """Write ``signals`` to ``path`` (the first) and to ``<stem>_<k>.csv``
    beside it (the others), with the sample store of all of them, as
    ``simulate`` leaves a dataset; returns the paths."""
    paths = [path] + [path.with_name(f"{path.stem}_{k}.csv") for k in range(1, len(signals))]
    with SampleStore(path.parent, [len(sig) for sig in signals]) as st:
        for i, (p, sig) in enumerate(zip(paths, signals)):
            st.put(i, write_signal(p, sig), sig.samples)
    return paths


def test_signal_file_edits_win_over_a_stale_store(tmp_path):
    """The text is the reference: an edited sample reads as its new value, and
    a sample that is not a number gives the same error with a stale store
    as without one.  That includes text that Python's ``float`` takes but
    ``np.loadtxt`` refuses (an underscore, digits other than ASCII ones), and
    a line of two numbers."""
    path = tmp_path / "sig.csv"
    write_stored(path, Signal([1.0, 2.0, 3.0], 10.0, "x"))
    text = path.read_text()
    path.write_text(text.replace("\n2.0\n", "\n2.5\n"))
    assert read_signal(path).samples.tolist() == [1.0, 2.5, 3.0]
    stored = store(path).read_bytes()
    for bad in ["abc", "1_000", "\uff11.\uff15", "\u0661\u0662", "1.0 2.0", "1.0,2.0"]:
        store(path).write_bytes(stored)
        path.write_text(text.replace("\n2.0\n", f"\n{bad}\n"))
        with pytest.raises(ValueError) as stale:
            read_signal(path)
        store(path).unlink()
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


def _u64(n: int) -> bytes:
    return n.to_bytes(8, "little")


def _store_bytes(records) -> bytes:
    """The store of ``records``, (text bytes, samples) pairs, written out
    field by field as the format states."""
    start = 24 + 48 * len(records)
    entries, slots, offset = [], b"", start
    for text, samples in records:
        samples = np.asarray(samples, "<f8")
        entries.append((hashlib.sha256(text).digest(), offset, samples.size))
        slots += samples.tobytes()
        offset += samples.nbytes
    entries.sort()
    return (b"gwstore\x01" + _u64(len(records)) + _u64((offset - start) // 8)
            + b"".join(d + _u64(o) + _u64(n) for d, o, n in entries) + slots)


# three records of different lengths; the last is written last, so its
# samples end the file
RECORDS = [np.array([0.5, -1.25, 3e-300]), np.array([7.0, 8.0]), np.array([-0.0, 1e300, 2.5, 4.0])]
SIZE = 24 + 48 * 3 + 8 * 9


def _entry_field(raw: bytes, field: int, value) -> bytes:
    """``raw`` with field ``field`` (32: offset, 40: count) of the entry that
    locates the last record's samples, which end the file, set to
    ``value(old)``."""
    raw = bytearray(raw)
    for at in range(24, 24 + 48 * 3, 48):
        if int.from_bytes(raw[at + 32:at + 40], "little") == SIZE - 32:
            old = int.from_bytes(raw[at + field:at + field + 8], "little")
            raw[at + field:at + field + 8] = _u64(value(old))
            return bytes(raw)
    raise AssertionError("no entry locates the last record")


def _set_u64(raw: bytes, at: int, value: int) -> bytes:
    return raw[:at] + _u64(value) + raw[at + 8:]


@pytest.mark.parametrize("damage", [
    pytest.param(lambda raw: b"", id="empty"),
    pytest.param(lambda raw: b"gwstore\x02" + raw[8:], id="wrong-version"),
    pytest.param(lambda raw: b"GWSTORE\x01" + raw[8:], id="wrong-magic"),
    pytest.param(lambda raw: raw[:20], id="truncated-header"),
    pytest.param(lambda raw: raw[:24], id="header-only"),
    pytest.param(lambda raw: raw[:24 + 48 + 20], id="truncated-index"),
    pytest.param(lambda raw: raw[:24 + 48 * 3], id="index-only"),
    pytest.param(lambda raw: raw[:-8], id="truncated-slot"),
    pytest.param(lambda raw: raw + b"\x00", id="trailing-byte"),
    pytest.param(lambda raw: raw + b"\x00" * 8, id="trailing-bytes"),
    pytest.param(lambda raw: _set_u64(raw, 8, 4), id="record-count-too-large"),
    pytest.param(lambda raw: _set_u64(raw, 8, 2**64 - 1), id="record-count-huge"),
    pytest.param(lambda raw: _set_u64(raw, 16, 10), id="total-too-large"),
    pytest.param(lambda raw: _entry_field(raw, 40, lambda n: n + 1), id="count-too-large"),
    pytest.param(lambda raw: _entry_field(raw, 40, lambda n: 0), id="count-zero"),
    pytest.param(lambda raw: _entry_field(raw, 32, lambda o: SIZE), id="offset-at-end"),
    pytest.param(lambda raw: _entry_field(raw, 32, lambda o: 2**64 - 8),
                 id="offset-outside-the-file"),
    pytest.param(lambda raw: _entry_field(raw, 32, lambda o: 24), id="offset-in-the-index"),
    pytest.param(lambda raw: raw[:24] + b"garbage" * 30, id="garbage-index"),
    pytest.param(lambda raw: b"garbage" * 30, id="garbage"),
    pytest.param(lambda raw: _store_bytes([(b"other text", s) for s in RECORDS]),
                 id="wrong-digest"),
])
def test_unusable_store_falls_back_to_the_text(tmp_path, monkeypatch, damage):
    """A store is read or passed over, never trusted into other samples: every
    record reads back its own samples, from the text when the store fails a
    layout check or holds nothing for the text's bytes."""
    paths = write_stored(tmp_path / "sig.csv", *(Signal(s, 10.0, "x") for s in RECORDS))
    raw = store(paths[0]).read_bytes()
    assert len(raw) == SIZE
    assert raw == _store_bytes([(p.read_bytes(), s) for p, s in zip(paths, RECORDS)])
    parses = []
    real = dataio._parsed_samples
    monkeypatch.setattr(dataio, "_parsed_samples", lambda *a: parses.append(a) or real(*a))
    for p, samples in zip(paths, RECORDS):
        assert read_signal(p).samples.tobytes() == samples.tobytes()
    assert parses == []
    store(paths[0]).write_bytes(damage(raw))
    for p, samples in zip(paths, RECORDS):
        assert read_signal(p).samples.tobytes() == samples.tobytes()
    assert len(parses) >= 1


def test_samples_from_the_store_are_a_writable_array_of_their_own(tmp_path):
    path, = write_stored(tmp_path / "sig.csv", Signal(RECORDS[0], 10.0, "x"))
    first, second = read_signal(path).samples, read_signal(path).samples
    first[0] = 99.0
    assert second.tobytes() == RECORDS[0].tobytes()
    assert read_signal(path).samples.tobytes() == RECORDS[0].tobytes()


def test_records_with_the_same_text_share_a_digest_and_read_back(tmp_path):
    """Equal texts give equal digests; their entries sort by offset, and each
    record reads back its samples from the store."""
    records = [RECORDS[1], RECORDS[0], RECORDS[1]]
    paths = write_stored(tmp_path / "sig.csv", *(Signal(s, 10.0, "x") for s in records))
    assert store(paths[0]).read_bytes() == _store_bytes(
        [(p.read_bytes(), s) for p, s in zip(paths, records)])
    for p, samples in zip(paths, records):
        assert read_signal(p).samples.tobytes() == samples.tobytes()


@pytest.mark.parametrize("suffix", [".f64", ".npy"])
def test_older_sidecars_are_never_opened(tmp_path, opened, suffix):
    """A per-file sidecar that an older version left (``<file>.f64``: the
    digest, the count and ``<f8`` samples; ``<file>.npy``: the digest and an
    ``.npy`` array), even one whose digest matches the text, is never opened:
    without a store the text is parsed."""
    path = tmp_path / "sig.csv"
    digest = hashlib.sha256(write_signal(path, Signal(RECORDS[0], 10.0, "x"))).digest()
    old = path.parent / "__gwcache__" / f"{path.name}{suffix}"
    old.parent.mkdir()
    if suffix == ".npy":
        buf = io.BytesIO()
        np.save(buf, np.zeros(3), allow_pickle=False)
        payload = digest + buf.getvalue()
    else:
        payload = digest + _u64(3) + np.zeros(3).tobytes()
    old.write_bytes(payload)
    opened.clear()
    assert read_signal(path).samples.tobytes() == RECORDS[0].tobytes()
    assert str(old) not in opened
    assert old.read_bytes() == payload


def test_a_leftover_temporary_store_is_never_read(tmp_path, opened):
    """A ``samples.gws.<pid>.tmp`` that a killed writer left is not a store:
    the text is parsed, and the file is left as it is."""
    path, = write_stored(tmp_path / "sig.csv", Signal(RECORDS[0], 10.0, "x"))
    tmp = store(path).with_name("samples.gws.12345.tmp")
    store(path).rename(tmp)
    opened.clear()
    assert read_signal(path).samples.tobytes() == RECORDS[0].tobytes()
    assert str(tmp) not in opened and opened.count(str(store(path))) == 1
    assert list(tmp.parent.iterdir()) == [tmp]


def test_a_failed_write_publishes_no_store_and_leaves_no_temporary_file(tmp_path):
    """Leaving the ``with`` block by an error removes the temporary store and
    keeps the store the directory had."""
    path, = write_stored(tmp_path / "sig.csv", Signal(RECORDS[0], 10.0, "x"))
    before = store(path).read_bytes()
    with pytest.raises(ValueError, match="record 0 has 2 samples, not the 3"):
        with SampleStore(tmp_path, [3]) as st:
            st.put(0, b"text", RECORDS[1])
    assert list(store(path).parent.iterdir()) == [store(path)]
    assert store(path).read_bytes() == before


@st.composite
def manifests(draw):
    baseline = draw(NAME)
    rows = draw(st.lists(st.tuples(NAME, st.one_of(st.just(baseline), NAME), NAME, NAME),
                         min_size=1, max_size=8))
    # validate() wants a baseline entry on every path
    rows += [(f"base-{p}.csv", baseline, p, s) for _, _, p, s in rows]
    # a file is listed once in each (path, set), so a later row replaces an earlier
    rows = list({(f, p, s): (f, label, p, s) for f, label, p, s in rows}.values())
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


@settings(max_examples=30, deadline=None)
@given(man=manifests(), data=st.data())
def test_manifest_refuses_a_file_listed_twice_in_a_set(man, data):
    """A saved manifest with a row appended that lists a file again in its
    path and set, under any label, names the new line and the first."""
    k = data.draw(st.integers(0, len(man.entries) - 1))
    e = man.entries[k]
    with tempfile.TemporaryDirectory() as tmp:
        path = man.save(Path(tmp) / "manifest.csv")
        lines = path.read_text().splitlines()
        lines.append(f"{e.file},{data.draw(NAME)},{e.path_id},{e.set_id}")
        path.write_text("\n".join(lines) + "\n")
        first = len(lines) - len(man.entries) + k
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{len(lines)}: {e.file} is listed again for path {e.path_id!r}, "
                f"set {e.set_id!r} (first on line {first})")):
            DatasetManifest.load(path)


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
