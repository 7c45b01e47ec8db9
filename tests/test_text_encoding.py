"""Every text file the package reads or writes is UTF-8, whatever the locale.

The round trip runs in a child interpreter that turns EncodingWarning into
an error, so any open() that falls back to the locale's encoding fails the
run.  On POSIX the child also runs in the C locale, with Python's locale
coercion and UTF-8 mode off, where that fallback would be ASCII.

Editors such as Excel and Notepad save "UTF-8 with BOM": the file starts
with a byte-order mark, which every reader drops and no writer adds.  A data
file or config that is not UTF-8 exits 1, naming its first bad byte.
"""
import codecs
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from margin_forge.cli import main
from margin_forge.dataset_io import Dataset, generate_synthetic, load_dataset, write_dataset
from margin_forge.ensemble import adaboost, load_model, save_model

SRC = Path(__file__).resolve().parents[1] / "src"

ROUND_TRIP = """
import sys
from pathlib import Path

import numpy as np

from margin_forge.dataset_io import load_dataset, write_dataset
from margin_forge.ensemble import adaboost, load_model, save_model

work = Path(sys.argv[1])

# a non-ASCII header and a full-width-digit token, written as UTF-8 bytes
raw = work / "raw.csv"
raw.write_bytes("gr\\u00f6\\u00dfe,\\u0448\\u0438\\u0440\\u0438\\u043d\\u0430,y\\n"
                "\\uff11\\uff12,1,0\\n3,4,1\\n5,\\uff16,0\\n7,8,1\\n".encode("utf-8"))
data = load_dataset(raw)
assert data.feature_names == ("gr\\u00f6\\u00dfe", "\\u0448\\u0438\\u0440\\u0438\\u043d\\u0430")
assert data.features[:, 0].tolist() == [12.0, 3.0, 5.0, 7.0]

copy = work / "copy.csv"
write_dataset(data, copy)
again = load_dataset(copy)
assert again.feature_names == data.feature_names
assert np.array_equal(again.features, data.features)
assert np.array_equal(again.labels, data.labels)

model = adaboost(data, 3)
save_model(model, work / "model.json")
loaded = load_model(work / "model.json")
assert np.array_equal(loaded.raw_alphas, model.raw_alphas)
print("ok")
"""


def test_dataset_and_model_files_round_trip_as_utf8(tmp_path):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0", "PYTHONWARNDEFAULTENCODING": "1"}
    run = subprocess.run([sys.executable, "-W", "error::EncodingWarning", "-c", ROUND_TRIP,
                          str(tmp_path)], capture_output=True, text=True, encoding="utf-8",
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ok"]


def with_bom(path):
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return path


@pytest.mark.parametrize("names", [None, ("a", "b")], ids=["headerless", "header"])
def test_dataset_reader_drops_a_byte_order_mark(tmp_path, names):
    data = generate_synthetic("two-gaussians", 20, 0.5, 1)
    path = tmp_path / "rows.csv"
    write_dataset(Dataset(data.name, data.features, data.labels, names), path)
    plain = load_dataset(path)
    assert not path.read_bytes().startswith(codecs.BOM_UTF8)
    marked = load_dataset(with_bom(path))
    assert marked.feature_names == plain.feature_names == names
    assert np.array_equal(marked.features, plain.features)
    assert np.array_equal(marked.labels, plain.labels)


def test_model_reader_drops_a_byte_order_mark(tmp_path):
    model = adaboost(generate_synthetic("two-gaussians", 40, 1.0, 2), 4)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert not path.read_bytes().startswith(codecs.BOM_UTF8)
    loaded = load_model(with_bom(path))
    assert np.array_equal(loaded.raw_alphas, model.raw_alphas)
    assert [t.to_dict() for t in loaded.trees] == [t.to_dict() for t in model.trees]


def test_config_reader_drops_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("dataset = synthetic:two-gaussians:40:0.8:3\nT = 2\nschemes = uws\n"
                    "sims = 2\n", encoding="utf-8")
    assert main(["experiment", "--config", str(with_bom(path))]) == 0
    assert "simulations\t2" in capsys.readouterr().out


@pytest.mark.parametrize("raw, fault", [
    ("1,2,1\n3,4,-1\n".encode("utf-16"), "byte 0xff at offset 0"),
    # the offset counts the bytes of a byte order mark too
    (codecs.BOM_UTF8 + b"1,2,1\n3,\xe9,-1\n", "byte 0xe9 at offset 11"),
], ids=["utf-16", "latin-1-after-bom"])
def test_non_utf8_data_file_exits_1(tmp_path, capsys, raw, fault):
    path = tmp_path / "rows.csv"
    path.write_bytes(raw)
    assert main(["data", "info", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text: {fault}\n"


def test_non_utf8_config_exits_1(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("dataset = synthetic:two-gaussians:40:0.8:3\nschemes = uws\n",
                    encoding="utf-16")
    assert main(["experiment", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 text: byte 0xff at offset 0\n"
