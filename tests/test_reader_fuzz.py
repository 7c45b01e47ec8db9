"""Mutated input files through the command line, in process.

Small valid files (a delimited data set, a sparse-index data set and a model
snapshot) are damaged one or two ways at a time: truncated, a byte flipped
or a few inserted, a byte order mark, a NUL or UTF-16 text, a ragged row, or
a sparse index far above the dense-size cap.  `data info` and `bounds` must
then either succeed or exit 1 with exactly one `error:` line; no exception
may escape and no case may count as a failure during computation (exit 2).

The files are a few hundred bytes, a case applies at most two mutations and
an insertion adds at most two bytes, so a mutated sparse index has at most
five digits: no case allocates more than a few MB (4 rows x 99,999 cells)
before the cap refuses it.
"""
import codecs
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from margin_forge.cli import main
from margin_forge.dataset_io import SPARSE_MAX_CELLS, generate_synthetic, write_dataset
from margin_forge.ensemble import adaboost, save_model

SPARSE = b"1 1:0.5 2:2\n-1 2:1\n1 1:0.2 2:0.1\n-1 1:0.4\n"


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    data = generate_synthetic("two-gaussians", 8, 3.0, 0)  # two boosting rounds
    write_dataset(data, work / "rows.csv")
    save_model(adaboost(data, 2), work / "model.json")
    return {"delimited": (work / "rows.csv").read_bytes(), "sparse": SPARSE,
            "snapshot": (work / "model.json").read_bytes()}, work


def _truncate(at):
    return lambda raw: raw[:at % (len(raw) + 1)]


def _flip(at, byte):
    def mutate(raw):
        i = at % max(len(raw), 1)
        return raw[:i] + bytes([byte]) + raw[i + 1:]
    return mutate


def _insert(at, extra):
    return lambda raw: raw[:at % (len(raw) + 1)] + extra + raw[at % (len(raw) + 1):]


def _ragged(line, drop):
    # drop the last field of one row, or repeat it
    def mutate(raw):
        rows = raw.split(b"\n")
        i = line % len(rows)
        head, sep, last = rows[i].rpartition(b"," if b"," in rows[i] else b" ")
        rows[i] = head if drop else rows[i] + sep + last
        return b"\n".join(rows)
    return mutate


def _far_index(line):
    def mutate(raw):
        rows = raw.split(b"\n")
        rows[line % len(rows)] += b" %d:1" % (1000 * SPARSE_MAX_CELLS)
        return b"\n".join(rows)
    return mutate


def _bom(raw):
    return codecs.BOM_UTF8 + raw


def _utf16(raw):
    return raw.decode("utf-8", "replace").encode("utf-16")


AT = st.integers(0, 10_000)
MUTATIONS = st.one_of(
    st.builds(_truncate, AT),
    st.builds(_flip, AT, st.integers(0, 255)),
    st.builds(_insert, AT, st.binary(min_size=1, max_size=2)),
    st.builds(_insert, AT, st.just(b"\x00")),
    st.builds(_ragged, AT, st.booleans()),
    st.builds(_far_index, AT),
    st.just(_bom),
    st.just(_utf16),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["delimited", "sparse", "snapshot"]),
       mutations=st.lists(MUTATIONS, min_size=1, max_size=2))
def test_mutated_inputs_exit_0_or_1_with_one_error_line(originals, kind, mutations):
    files, work = originals
    raw = files[kind]
    for mutate in mutations:
        raw = mutate(raw)
    model, data, fmt = work / "model.json", work / "rows.csv", []
    if kind == "snapshot":
        model = work / "mutated.json"
        runs = []
    else:
        data = work / f"mutated.{kind}"
        fmt = ["--fmt", "sparse-index"] if kind == "sparse" else []
        runs = [["data", "info", str(data), *fmt]]
    (model if kind == "snapshot" else data).write_bytes(raw)
    runs.append(["bounds", "--model", str(model), "--data", str(data), *fmt])
    for argv in runs:
        rc, err = _run(argv)
        assert rc in (0, 1), (argv, err)
        if rc == 1:
            assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
