"""Write-then-read round trips of the three text formats: signal files,
dataset manifests and detection reports.  Signal files are read both through
the sample store that ``simulate`` leaves beside them and from the text
alone.

Signal labels are drawn from ``[A-Za-z0-9._-]``: the reader strips the
whitespace around a field, and ``write_signal`` refuses a label it would
strip.  A manifest's and a report's texts are drawn from any text, and a
report's numbers from any int or float: one that construction accepts must
read back equal.
"""

import hashlib
import io
import posixpath
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
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


@pytest.mark.parametrize("label, why", [("a ", "has whitespace at an end"),
                                        ("\ta", "has whitespace at an end"),
                                        ("a\udc80", "does not encode as UTF-8")])
def test_signal_label_that_would_not_read_back_is_refused_before_writing(tmp_path, label,
                                                                         why):
    """The reader strips the whitespace around a label, and the file is
    UTF-8: such a label is refused, naming the file, before a byte is
    written."""
    path = tmp_path / "sig.csv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: label {label!r} {why}")):
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


# Text that the manifest format reads as syntax (a field separator, whitespace
# that ``load`` strips, a line end, a comment, a key), path spellings that
# ``posixpath.normpath`` folds, the header's own words, and any text at all
PIECE = st.one_of(st.sampled_from([",", " ", "\t", "\n", "\r", "#", "=", "./", "//", "/",
                                   "file", "label", "path_id", "set_id"]),
                  st.text(max_size=3), NAME)
FILE = st.lists(NAME, min_size=1, max_size=3).map("/".join)
# "./" joined to an absolute name would make it relative: it stays as it is
RESPELL = st.sampled_from([str, lambda f: posixpath.join(".", f),
                          lambda f: f.replace("/", "//", 1)])


@st.composite
def texts(draw, common=NAME, one_in=24):
    """``common``, or one time in ``one_in`` a join of ``PIECE``s: a manifest
    draws some 40 texts, and one that breaks a rule refuses the manifest."""
    if draw(st.integers(0, one_in - 1)):
        return draw(common)
    return "".join(draw(st.lists(PIECE, max_size=4)))


@st.composite
def manifests(draw):
    """``DatasetManifest`` keyword arguments with every text drawn from
    ``texts``, now and then the header as a row or a row repeated (respelled
    or not), and any float band, NaN included: many of them must be refused
    where they are constructed."""
    baseline = draw(texts())
    rows = [(draw(texts(FILE)), draw(st.one_of(st.just(baseline), texts())),
             draw(texts()), draw(texts())) for _ in range(draw(st.integers(1, 6)))]
    if not draw(st.integers(0, 15)):
        rows.append(("file", "label", "path_id", "set_id"))
    # validate() wants a baseline entry on every path
    rows += [(f"base-{p}.csv", baseline, p, s) for p, s in dict.fromkeys(r[2:] for r in rows)]
    if not draw(st.integers(0, 3)):
        f, label, p, s = draw(st.sampled_from(rows))
        rows.append((draw(RESPELL)(f), label, p, s))
    windows = draw(st.dictionaries(texts(), st.tuples(st.integers(0, 10**6),
                                                      st.integers(1, 10**6)), max_size=3))
    return dict(entries=draw(st.permutations(rows)), sample_rate=draw(POSITIVE),
                baseline_label=baseline, packet_windows=windows,
                band=draw(st.one_of(st.none(), st.tuples(st.floats(), st.floats()))))


def _constructed(fields):
    try:
        return DatasetManifest(**fields)
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(fields=manifests())
def test_manifest_roundtrip(fields):
    """Construction refuses the manifest, or ``save`` writes it, ``load``
    reads it back equal, and a second ``save`` writes the same bytes."""
    man = _constructed(fields)
    event("refused" if man is None else "constructed")
    if man is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = man.save(Path(tmp) / "manifest.csv")
        back = DatasetManifest.load(path)
        again = back.save(Path(tmp) / "again.csv")
        assert again.read_bytes() == path.read_bytes()
    assert back.entries == man.entries
    assert back.sample_rate == man.sample_rate
    assert back.baseline_label == man.baseline_label
    assert back.packet_windows == man.packet_windows
    assert back.band == man.band


@settings(max_examples=30, deadline=None)
@given(man=manifests().map(_constructed).filter(lambda m: m is not None),
       data=st.data())
def test_manifest_refuses_a_file_listed_twice_in_a_set(man, data):
    """A saved manifest with a row appended that lists a file again in its
    path and set, under any label and spelled as it is or with ``./`` or
    ``//``, names the new line and the first."""
    k = data.draw(st.integers(0, len(man.entries) - 1))
    e = man.entries[k]
    file = data.draw(RESPELL)(e.file)
    with tempfile.TemporaryDirectory() as tmp:
        path = man.save(Path(tmp) / "manifest.csv")
        # split at LF alone, as ``load`` does: a field may hold U+2028
        lines = path.read_bytes().decode("utf-8").split("\n")[:-1]
        lines.append(f"{file},{data.draw(NAME)},{e.path_id},{e.set_id}")
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        first = len(lines) - len(man.entries) + k
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{len(lines)}: {file} is listed again for path {e.path_id!r}, "
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
        m_by_set=draw(st.dictionaries(NAME, st.integers(1, 1000), max_size=3)),
        band=draw(st.one_of(st.none(), st.tuples(FINITE, FINITE).map(sorted).map(tuple))),
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


# A report's own syntax, half the time, or any other piece: ',', ';' and ':'
# (the row and '# m_train' separators), line ends, whitespace, '#', '=', the
# column header's first word and the band's 'full'
SYNTAX = st.sampled_from([",", ";", ":", " ", "\n", "\r", "#", "=", "metric", "full"])
REPORT_TEXT = st.lists(st.booleans().flatmap(lambda syntax: SYNTAX if syntax else PIECE),
                       max_size=4).map("".join)
ANY_NUMBER = st.one_of(st.integers(-10**30, 10**30), st.floats())
WIDE = ("path", "window", "metric", "label", "count", "alpha", "band", "holdout", "set id", "M")


@st.composite
def report_fields(draw):
    """``DetectionReport`` keyword arguments.  One field of ``WIDE`` is drawn
    wide, as any text (``REPORT_TEXT``) or any int or float, and every other
    field so one time in 24, so that most reports that break the rule break
    it in that one field; now and then a row is left out.  Many of them must be
    refused where they are constructed."""
    wide = draw(st.sampled_from(WIDE))

    def pick(name, common, other):
        return draw(other if name == wide or not draw(st.integers(0, 23)) else common)

    labels = [pick("label", NAME, REPORT_TEXT) for _ in range(draw(st.integers(0, 3)))]
    metrics = [pick("metric", st.sampled_from(METRICS), REPORT_TEXT)
               for _ in range(draw(st.integers(1, 3)))]
    # half the rows of a wide count stay valid, so a report can still construct
    wide_counts = counts() | st.tuples(ANY_NUMBER, ANY_NUMBER).map(sorted).map(tuple)
    rows = {(metric, label): pick("count", counts(), wide_counts)
            for metric in metrics for label in (None, *labels)}
    if not draw(st.integers(0, 15)):
        del rows[draw(st.sampled_from(sorted(rows, key=repr)))]
    m_by_set = {pick("set id", NAME, REPORT_TEXT): pick("M", st.integers(1, 1000), ANY_NUMBER)
                for _ in range(draw(st.integers(0, 3)))}
    band = st.one_of(st.none(), st.tuples(FINITE, FINITE).map(sorted).map(tuple))
    return dict(
        path=pick("path", NAME, REPORT_TEXT), window=pick("window", NAME, REPORT_TEXT),
        alpha=pick("alpha", st.floats(min_value=1e-12, max_value=1.0), ANY_NUMBER),
        counts=rows, holdout=pick("holdout", st.integers(0, 1000), ANY_NUMBER),
        m_by_set=m_by_set, band=pick("band", band, st.tuples(ANY_NUMBER, ANY_NUMBER)),
        welch=draw(welch_configs()))


@settings(max_examples=300, deadline=None)
@given(fields=report_fields())
def test_report_roundtrip(fields):
    """Construction refuses the report with ``ValueError``, or ``from_csv``
    reads its ``to_csv`` text back equal, rows in order, and the report read
    back writes the same text."""
    try:
        report = DetectionReport(**fields)
    except ValueError:
        event("refused")
        return
    event("constructed")
    text = report.to_csv()
    back = DetectionReport.from_csv(text)
    assert back == report
    assert list(back.counts.items()) == list(report.counts.items())
    assert back.to_csv() == text


def _stripped(text: str) -> list:
    return [line.strip() for line in text.split("\n") if line.strip()]


@st.composite
def edited_reports(draw):
    """A drawn report's ``to_csv`` text with one edit: a line of any text
    inserted, a line dropped, duplicated or replaced by any text, or two
    lines swapped.  Any text is ``REPORT_TEXT`` or, as often, one of the
    report's own lines with ``REPORT_TEXT`` spliced in."""
    lines = draw(reports()).to_csv().split("\n")[:-1]
    k, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    line = draw(st.sampled_from(lines))
    cut = draw(st.integers(0, len(line)))
    text = draw(REPORT_TEXT | REPORT_TEXT.map(lambda t: line[:cut] + t + line[cut:]))
    edit = draw(st.sampled_from(["insert", "drop", "duplicate", "swap", "replace"]))
    event(edit)
    if edit == "insert":
        lines.insert(draw(st.integers(0, len(lines))), text)
    elif edit == "drop":
        del lines[k]
    elif edit == "duplicate":
        lines.insert(j, lines[k])
    elif edit == "swap":
        lines[k], lines[j] = lines[j], lines[k]
    else:
        lines[k] = text
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=edited_reports())
def test_an_edited_report_reads_back_only_as_to_csv_writes_it(text):
    """``from_csv`` refuses an edited text, naming a line, the metric and
    label of a missing row or a missing header, or reads back a report whose
    ``to_csv`` is the text, blank lines and the whitespace around a line
    aside."""
    try:
        back = DetectionReport.from_csv(text)
    except ValueError as exc:
        event("refused")
        assert re.match(r"line \d+: |metric .* has no |not a detect report: missing '# ",
                        str(exc)), str(exc)
        return
    event("read back")
    assert _stripped(back.to_csv()) == _stripped(text)


REPORT = dict(path="1-2", window="first-packet", alpha=0.05,
              counts={("z", None): (1, 4), ("z", "att-0.9"): (0, 4)}, holdout=3,
              m_by_set={"set0": 5}, band=(1.5e5, 3.5e5),
              welch=WelchConfig(segment_length=100, nfft=2000))


def _rows(metric="z", label="att-0.9", false_alarms=(1, 4)):
    return {(metric, None): false_alarms, (metric, label): (0, 4)}


@pytest.mark.parametrize("change, field", [
    pytest.param({"alpha": 0}, "alpha", id="alpha-0"),
    pytest.param({"alpha": float("nan")}, "alpha", id="alpha-nan"),
    pytest.param({"alpha": 2}, "alpha", id="alpha-2"),
    pytest.param({"holdout": -1}, "holdout", id="holdout--1"),
    pytest.param({"holdout": 1.5}, "holdout", id="holdout-1.5"),
    pytest.param({"m_by_set": {"set0": 0}}, "M 0", id="M-0"),
    pytest.param({"counts": _rows(false_alarms=(5, 4))}, "count 5", id="count-5-of-4"),
    pytest.param({"m_by_set": {"a;b": 5}}, "set id", id="set-id-with-;"),
    pytest.param({"band": (3.0, 1.0)}, "band", id="band-3:1"),
    pytest.param({"band": (float("nan"), 1.0)}, "band", id="band-nan"),
    pytest.param({"counts": _rows(label="a,b")}, "label", id="label-with-,"),
    pytest.param({"counts": _rows(label="")}, "label", id="empty-label"),
    pytest.param({"path": "1-2\n"}, "path", id="path-with-a-line-break"),
    pytest.param({"path": "1-2 "}, "path", id="path-with-an-end-space"),
    pytest.param({"window": "first-packet\r"}, "window", id="window-with-CR"),
    pytest.param({"counts": _rows(metric="metric")}, "metric", id="metric-named-metric"),
])
def test_report_refuses_at_construction_what_would_not_read_back(change, field):
    """Each of these reports would be written by ``to_csv`` and then refused
    by ``from_csv`` or read back different, so its constructor refuses it,
    naming the field."""
    assert DetectionReport.from_csv(DetectionReport(**REPORT).to_csv()) == \
        DetectionReport(**REPORT)
    with pytest.raises(ValueError, match=field):
        DetectionReport(**{**REPORT, **change})
