"""The streaming reader against the whole-file one (tests/reader_oracle.py).

load_dataset reads CHUNK bytes and converts ROW_BLOCK rows at a time.  Both
are set down to a few bytes and rows here, so that line breaks, "\\r\\n",
byte order marks, multi-byte characters, bytes that do not decode, blank
lines, headers, ragged rows and bad tokens fall on chunk and block edges.
Whatever the file, the streaming reader must give what the oracle gives:
the same features bit for bit, labels and names, or the same error text.
"""
import codecs
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reader_oracle
from margin_forge import dataset_io
from margin_forge.cli import CliError, _read_config

# every break str.splitlines knows, and "\r\n"
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
GOOD = ["0", "1", "-1", "2.5", " 3 ", "1e3", "1_0", "\uff11\uff12"]
BAD = ["x", "", "nan", "β"]
LABELS = ["0", "1", "0", "1", "-1", "a", "b", "nan"]
NAMES = ["a", "b", "größe", "y"]
SPARSE = ["1:0.5", "2:1", "3:-2"]
BAD_SPARSE = ["2:\xe9", "1:x", "0:1", "7", "1:3"]
UNDECODABLE = [b"\xff", b"\xe9", b"\x80", b"\xe2\x82", b"\xef\xbb", b"\xf0\x90\x80", b"\xed\xa0\x80"]


def outcome(load, path, **kwargs):
    """What a reader makes of a file: its dataset's bits, or its error."""
    try:
        data = load(path, **kwargs)
    except ValueError as exc:   # DatasetError, or an unknown format
        return type(exc).__name__, str(exc)
    return (data.name, data.features.shape, data.features.view(np.int64).tobytes(),
            data.labels.tobytes(), data.feature_names)


def streamed(path, chunk, block, **kwargs):
    with mock.patch.object(dataset_io, "CHUNK", chunk), \
            mock.patch.object(dataset_io, "ROW_BLOCK", block):
        return outcome(dataset_io.load_dataset, path, **kwargs)


def lines_of(path, chunk):
    """read_lines' lines, or its error, next to what the whole text gives."""
    def whole():
        return reader_oracle.read_text(path).splitlines()

    def streaming():
        with mock.patch.object(dataset_io, "CHUNK", chunk):
            return list(dataset_io.read_lines(path))

    results = []
    for read in (whole, streaming):
        try:
            results.append(read())
        except dataset_io.DatasetError as exc:
            results.append(str(exc))
    return results


@st.composite
def files(draw):
    """File bytes and load_dataset's arguments.  Each kind of fault is
    switched on for a share of the files only, so most files load."""
    sparse = draw(st.booleans())
    fmt = "sparse-index" if sparse else "delimited"
    if draw(st.integers(0, 9)) == 0:
        fmt = draw(st.sampled_from(["delimited", "sparse-index", "csv"]))
    label_column = draw(st.sampled_from([-1] * 6 + [0, 1, 3, -5]))
    delimiter = draw(st.sampled_from([",", "\t"]))
    width = draw(st.integers(1, 3))   # feature columns
    token = st.sampled_from(GOOD)
    entries = st.lists(st.sampled_from(SPARSE), max_size=3, unique=True)
    if draw(st.integers(0, 3)) == 0:
        token = st.one_of(token, token, token, st.sampled_from(BAD))
        entries = st.lists(st.sampled_from(SPARSE + BAD_SPARSE), max_size=3)
    labels = st.sampled_from(LABELS if draw(st.integers(0, 3)) == 0 else ["-1", "1"])
    counts = st.sampled_from([width] * 6 + [width - 1, width + 1] if draw(st.integers(0, 3)) == 0
                             else [width])
    lines = []
    if draw(st.integers(0, 3)) == 0:
        lines.append(delimiter.join(draw(st.sampled_from(NAMES)) for _ in range(width + 1)))
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))   # blank
        elif sparse:
            lines.append(" ".join([draw(labels), *draw(entries)]))
        else:
            lines.append(delimiter.join([draw(token) for _ in range(draw(counts))]
                                        + [draw(labels)]))
    breaks = [draw(st.sampled_from(BREAKS)) for _ in lines]
    if lines and draw(st.booleans()):
        breaks[-1] = ""   # no break after the last line
    text = "".join(line + br for line, br in zip(lines, breaks))
    raw = (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + text.encode("utf-8")
    for _ in range(draw(st.sampled_from([0] * 5 + [1, 2]))):
        at = draw(st.integers(0, len(raw)))
        if draw(st.booleans()):
            raw = raw[:at] + draw(st.sampled_from(UNDECODABLE)) + raw[at:]
        else:
            raw = raw[:at]
    return raw, {"fmt": fmt, "label_column": label_column,
                 "delimiter": draw(st.sampled_from([None, None, delimiter]))}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@settings(max_examples=400, deadline=None)
@given(case=files(), chunk=st.integers(1, 9), block=st.integers(1, 4))
def test_streaming_reader_gives_what_the_whole_file_reader_gives(work, case, chunk, block):
    raw, kwargs = case
    path = work / "rows.csv"
    path.write_bytes(raw)
    assert streamed(path, chunk, block, **kwargs) == \
        outcome(reader_oracle.load_dataset, path, **kwargs)
    whole, streaming = lines_of(path, chunk)
    assert streaming == whole


EDGE_FILES = {
    **{f"break-{ord(br[-1]):#x}-{len(br)}": f"a,b,y{br}1,2,0{br}{br}3,4,1{br}5,6,0".encode()
       for br in BREAKS},
    "crlf-blank-crlf": b"1,2,0\r\n\r\n\r\r\n3,4,1\r\n",
    "bom-multibyte": codecs.BOM_UTF8 + "größe,β,y\n１,2,0\n3,€,1\n".encode(),
    "bom-only": codecs.BOM_UTF8,
    "partial-bom": codecs.BOM_UTF8[:2],
    "two-boms": codecs.BOM_UTF8 * 2 + b"1,2,0\n3,4,1\n",
    "bad-byte": b"1,2,0\n3,\xe9,1\n",
    "bad-byte-after-bom": codecs.BOM_UTF8 + b"1,2,1\n3,\xe9,-1\n",
    "truncated-char": "1,2,0\n3,4,1\n€".encode()[:-1],
    "surrogate": b"1,2,0\n3,\xed\xa0\x80,1\n",
    "blank-lines": b"\n \n1,2,0\n\t\n\n3,4,1\n\n",
    "header-only": b"a,b,y\r\n\r\n",
    "ragged": b"1,2,0\n3,4,1\n5,1\n",
    "bad-token": b"a,b,y\n1,2,0\n3,x,1\n5,,0\n",
    "missing-value": b"1,2,0\n3,,1\n",
    "sparse": b"+1 1:0.5 3:2\n-1 2:1\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_every_chunk_and_block_edge_of_small_files(work, name):
    raw = EDGE_FILES[name]
    path = work / f"{name}.csv"
    path.write_bytes(raw)
    fmt = "sparse-index" if name == "sparse" else "delimited"
    want = outcome(reader_oracle.load_dataset, path, fmt=fmt)
    for chunk in range(1, len(raw) + 2):
        whole, streaming = lines_of(path, chunk)
        assert streaming == whole, chunk
        for block in (1, 2, 3):
            assert streamed(path, chunk, block, fmt=fmt) == want, (chunk, block)


@pytest.mark.parametrize("raw, kwargs, message", [
    (b"1,2,0\n1,0\n3,\xff,1\n", {}, "not UTF-8 text: byte 0xff at offset 12"),
    (b"1,x,0\n" + b"1,2,0\n" * 5 + b"1,0\n", {}, "row 7 has 2 fields, expected 3"),
    (b"1,2,0\n1,0\n", {"label_column": 5}, "row 2 has 2 fields, expected 3"),
    (b"1,2,0\n1,x,0\n", {"label_column": 5}, "label column 5 out of range"),
    (b"a,b,y\n", {"label_column": -4}, "label column -4 out of range"),
    (b"5\n1,2\n3,\xff\n", {}, "not UTF-8 text: byte 0xff at offset 8"),
    (b"\n \n", {"fmt": "csv"}, "empty file"),
    (b"1,2,0\n\xff", {"fmt": "csv"}, "not UTF-8 text: byte 0xff at offset 6"),
    (b"1 x\n-1 1:1\n\xe9\n", {"fmt": "sparse-index"}, "not UTF-8 text: byte 0xe9 at offset 11"),
], ids=["bad-byte-after-ragged", "ragged-after-bad-token", "ragged-and-label-column",
        "label-column-before-bad-token", "label-column-before-header-only",
        "bad-byte-after-one-field", "unknown-format-on-empty-file",
        "bad-byte-before-unknown-format", "bad-byte-after-bad-sparse-entry"])
def test_fault_precedence(work, raw, kwargs, message):
    path = work / "precedence.csv"
    path.write_bytes(raw)
    for chunk, block in ((1, 1), (4, 2), (1 << 18, 512)):
        name, text = streamed(path, chunk, block, **kwargs)
        assert (name, text) == outcome(reader_oracle.load_dataset, path, **kwargs)
        assert text == f"{path}: {message}"


def test_config_line_numbers_count_blank_lines_across_chunks(work):
    path = work / "exp.cfg"
    path.write_bytes(codecs.BOM_UTF8 + b"dataset = synthetic:two-gaussians:40:0.8:3\r\n"
                     b"\r\n# comment\r\n\r\nschemes = uws\r\nbogus\r\n")
    for chunk in range(1, 12):
        with mock.patch.object(dataset_io, "CHUNK", chunk), \
                pytest.raises(CliError, match=f"^{path}:6: expected key = value$"):
            _read_config(str(path))
