"""The blocked writer against the row-by-row one (tests/writer_oracle.py).

write_dataset formats ROW_BLOCK rows at a time from one %-template.  Row
counts on both sides of a block edge, one and many columns, with and
without names, and the extreme and awkward float64 values must all give
the oracle's bytes.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import writer_oracle
from margin_forge import dataset_io
from margin_forge.dataset_io import Dataset

SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0, 1e16, 0.1]


ROWS = [1, dataset_io.ROW_BLOCK - 1, dataset_io.ROW_BLOCK, dataset_io.ROW_BLOCK + 1,
        2 * dataset_io.ROW_BLOCK + 1]


def make_data(n, p, seed, special_share, named):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-300, 300, size=(n, p))
    # a share of the cells, at random places, take the special values
    special = rng.random((n, p)) < special_share
    x[special] = rng.choice(SPECIAL, size=int(special.sum()))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return Dataset("w", x, y, tuple(f"f{j}" for j in range(p)) if named else None)


def same_bytes(tmp_path, data):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataset_io.write_dataset(data, got)
    writer_oracle.write_dataset(data, want)
    return got.read_bytes() == want.read_bytes()


@st.composite
def datasets(draw):
    return make_data(draw(st.sampled_from(ROWS)), draw(st.sampled_from([1, 40])),
                     draw(st.integers(0, 2 ** 32 - 1)),
                     draw(st.sampled_from([0.0, 0.3, 1.0])), draw(st.booleans()))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=datasets())
def test_blocked_writer_writes_the_oracles_bytes(tmp_path, data):
    assert same_bytes(tmp_path, data)


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("p", [1, 40])
def test_every_block_edge_writes_the_oracles_bytes(tmp_path, n, p):
    assert same_bytes(tmp_path, make_data(n, p, n * p, 0.3, named=n % 2 == 1))
