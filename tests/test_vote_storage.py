"""Signed votes packed one bit a cell: what the storage costs and what it must not change.

PredictionMatrix is the one owner of the packed vote format: its readers
(vote_counts, learner_sums, weighted_sum, gram, dense) are the only code
that knows it.  Each reader's result on a packed matrix must equal, bit for
bit, its result on the same votes in the one-byte storage it replaced
(int8_matrix_oracle.Int8Matrix) and on the votes held in float64
(float64_twin).  Float input is checked before it is narrowed, since a cast
would truncate 0.5 or 1.5 to a vote; int8 input is checked by its range and
its nonzero count.

weighted_sum casts one float64 column tile at a time and gram adds exact
float32 tile products in float64.  They must equal the full float64 cast's
products bit for bit: a child interpreter pins that at one BLAS thread, the
way the benchmark runs, on shapes that straddle the tile edges, and gram
must stay exact past float32's 2**24 integer range.
"""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from int8_matrix_oracle import Int8Matrix, float64_twin
from margin_forge import reweight
from margin_forge.bounds import germain_bound, gibbs_risk
from margin_forge.dataset_io import generate_synthetic
from margin_forge.ensemble import (
    _TILE, PredictionMatrix, adaboost, prediction_matrix, random_forest,
)
from margin_forge.margins import compute_margins
from margin_forge.reweight import apply_scheme, parse_spec, sm2_weights

SRC = Path(__file__).resolve().parents[1] / "src"


def oracles(matrix):
    """The votes of matrix in the int8 storage and in float64."""
    return Int8Matrix(matrix.entries, matrix.labels), float64_twin(matrix)


def same_bits(a, b):
    return np.asarray(a).dtype == np.asarray(b).dtype and \
        np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.fixture(scope="module")
def forest():
    # T = 12 equal votes: an even count, so some rows tie at exactly 0
    data = generate_synthetic("two-gaussians", 120, 2.5, 4)
    model = random_forest(data, T=12, seed=4)
    return prediction_matrix(model, data), model.vote_weights


@pytest.fixture(scope="module")
def boosted():
    # 150 rows: the last byte of each learner's bits holds 6 pad bits
    data = generate_synthetic("two-gaussians", 150, 1.6, 7)
    model = adaboost(data, T=25)
    return prediction_matrix(model, data), model.vote_weights


def test_bits_are_c_ordered_read_only_uint8(forest, boosted):
    for matrix, _ in (forest, boosted):
        T, n = matrix.n_learners, matrix.n_rows
        bits = matrix.bits
        assert bits.dtype == np.uint8 and bits.shape == (T, (n + 7) // 8)
        assert bits.flags.c_contiguous and not bits.flags.writeable
        assert matrix.labels.dtype == np.float64
        entries = matrix.entries
        assert entries.dtype == np.int8 and entries.shape == (T, n)
        assert entries.flags.c_contiguous and not entries.flags.writeable
        assert same_bits(bits, np.packbits(entries > 0, axis=1))
        # int8 and float input pack to the same bits
        for votes in (np.array(entries), entries.astype(float), entries.astype(np.float32)):
            assert same_bits(PredictionMatrix(votes, matrix.labels).bits, bits)


def test_a_matrix_with_no_rows_is_refused():
    with pytest.raises(ValueError, match="n >= 1"):
        PredictionMatrix(np.ones((2, 0), np.int8), np.ones(0))
    with pytest.raises(ValueError, match="n >= 1"):
        PredictionMatrix(np.ones((1, 0)), np.ones(0))
    with pytest.raises(ValueError, match="T >= 1"):
        PredictionMatrix(np.ones((0, 3), np.int8), np.ones(3))


@pytest.mark.parametrize("bad", [0.5, 1.5, -1.5, 2.0, np.nan])
def test_float_entries_that_int8_would_truncate_are_refused(bad):
    # each is checked before narrowing, where int8 would make it 0, 1, -1 or 2
    entries = np.array([[1.0, bad, -1.0]])
    with pytest.raises(ValueError, match="-1 or \\+1"):
        PredictionMatrix(entries, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        PredictionMatrix(entries.astype(np.float32), np.array([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("bad", [0, 2, -128])
def test_int8_entries_other_than_a_vote_are_refused(bad):
    entries = np.array([[1, -1, 1], [-1, bad, 1]], dtype=np.int8)
    with pytest.raises(ValueError, match="-1 or \\+1"):
        PredictionMatrix(entries, np.array([1.0, -1.0, 1.0]))


def test_an_entry_that_rounds_to_one_in_float32_is_refused():
    near = 1.0 + 1e-9
    assert np.float32(near) == 1.0
    with pytest.raises(ValueError, match="-1 or \\+1"):
        PredictionMatrix(np.array([[near, -1.0]]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="-1 or \\+1"):
        PredictionMatrix(np.array([[1.0, -1.0 - 1e-9]]), np.array([1.0, -1.0]))


def test_margins_match_float64_storage_with_ties(forest, boosted):
    matrix, equal = forest
    got = compute_margins(matrix, equal).margins
    assert np.any(got == 0.0)
    for oracle in oracles(matrix):
        assert same_bits(got, compute_margins(oracle, equal).margins)
    matrix, unequal = boosted
    got = compute_margins(matrix, unequal).margins
    assert same_bits(got, unequal @ matrix.entries.astype(float))
    for oracle in oracles(matrix):
        assert same_bits(got, compute_margins(oracle, unequal).margins)
    # unequal weights whose vote cancels exactly on the first row
    hand = PredictionMatrix(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]),
                            np.array([1.0, -1.0]))
    w = np.array([0.25, 0.25, 0.5])
    got = compute_margins(hand, w).margins
    assert got[0] == 0.0
    for oracle in oracles(hand):
        assert same_bits(got, compute_margins(oracle, w).margins)


def test_bounds_match_float64_storage(forest, boosted):
    for matrix, w in (forest, boosted):
        for oracle in oracles(matrix):
            assert same_bits(gibbs_risk(matrix, w), gibbs_risk(oracle, w))
            got, want = germain_bound(matrix, w), germain_bound(oracle, w)
            assert got.applicable == want.applicable
            assert same_bits(got.value, want.value)
            assert got.inputs.keys() == want.inputs.keys()
            assert all(same_bits(got.inputs[k], want.inputs[k]) for k in got.inputs)


def assert_same_result(got, want):
    assert got.scheme == want.scheme and got.feasible == want.feasible
    for name in ("objective", "weights", "old_profile", "new_profile"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert same_bits(getattr(a, "margins", a), getattr(b, "margins", b)), name


@pytest.mark.parametrize("fixture", ["forest", "boosted"])
def test_sm2_matches_float64_storage_on_the_eigh_path(fixture, request):
    matrix, w = request.getfixturevalue(fixture)
    got = sm2_weights(matrix, w)
    for oracle in oracles(matrix):
        assert_same_result(got, sm2_weights(oracle, w))


def test_sm2_matches_float64_storage_on_the_lstsq_path(boosted, monkeypatch):
    matrix, w = boosted
    real = np.linalg.eigh
    calls = []

    def blurred(gram):
        # an eigenvalue between the null-space cut and lam_max * sqrt(eps)
        calls.append(gram.dtype)
        lam, vecs = real(gram)
        lam = lam.copy()
        lam[-2] = lam[-1] * 1e-10
        return np.sort(lam), vecs[:, np.argsort(lam)]

    monkeypatch.setattr(np.linalg, "eigh", blurred)
    lstsq = np.linalg.lstsq
    solved = []
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda a, *rest, **kw: solved.append(a.dtype) or lstsq(a, *rest, **kw))
    got = sm2_weights(matrix, w)
    for oracle in oracles(matrix):
        assert_same_result(got, sm2_weights(oracle, w))
    assert calls == [np.float64] * 3 and solved == [np.float64] * 3


@pytest.mark.parametrize("text", ["uws", "pws:0.1", "sm1:0.05", "sm1:0.4"])
def test_margin_lp_schemes_match_float64_storage(text, forest, boosted, monkeypatch):
    # the LP each scheme hands the solver must be the float64 one, byte for byte
    stated = []
    solve = reweight.solve
    monkeypatch.setattr(reweight, "solve", lambda lp: stated.append(lp) or solve(lp))
    feasible = []
    for matrix, w in (forest, boosted):
        got = apply_scheme(parse_spec(text), matrix, w)
        feasible.append(got.feasible)
        for oracle in oracles(matrix):
            assert_same_result(got, apply_scheme(parse_spec(text), oracle, w))
        mine, *theirs = stated[-3:]
        for other in theirs:
            for name in ("objective", "a_ge", "b_ge", "a_eq", "b_eq", "upper"):
                assert same_bits(getattr(mine, name), getattr(other, name)), name
    if text == "sm1:0.4":
        # the floors at the 0.4-quantile are out of reach on one of the two
        assert not all(feasible)


def random_votes(T, n, seed):
    """A packed matrix of T learners over n rows, each right on its own share."""
    rng = np.random.default_rng(seed)
    votes = np.where(rng.random((T, n)) < rng.random((T, 1)), -1, 1).astype(np.int8)
    return PredictionMatrix(votes, np.where(rng.random(n) < 0.5, -1.0, 1.0))


def assert_readers_match(matrix, oracle):
    w = np.random.default_rng(matrix.n_rows).random(matrix.n_learners) + 0.1
    w /= w.sum()
    for name in ("vote_counts", "learner_sums", "gram", "dense"):
        assert same_bits(getattr(matrix, name)(), getattr(oracle, name)()), name
    assert same_bits(matrix.weighted_sum(w), oracle.weighted_sum(w))
    assert same_bits(matrix.entries, oracle.entries)


ROW_COUNTS = [1, 7, 8, 9, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE - 1, 2 * _TILE,
              2 * _TILE + 1, 2 * _TILE + 1568]


@pytest.mark.parametrize("T", [1, 8, 500])
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_packed_readers_match_the_int8_storage(T, n):
    matrix = random_votes(T, n, seed=T * 10007 + n)
    oracle = Int8Matrix(matrix.entries, matrix.labels)
    assert_readers_match(matrix, oracle)
    k = (T + 1) // 2
    assert_readers_match(matrix.leading(k), oracle.leading(k))


def test_leading_shares_the_full_bits(boosted):
    matrix, _ = boosted
    view = matrix.leading(5)
    assert np.shares_memory(view.bits, matrix.bits)
    assert view.bits.shape == (5, matrix.bits.shape[1]) and not view.bits.flags.writeable
    assert view.labels is matrix.labels and view.n_rows == matrix.n_rows
    assert same_bits(view.entries, matrix.entries[:5])


@pytest.mark.parametrize("n", [1, 7, 9, _TILE + 1, 2 * _TILE - 1, 2 * _TILE + 1])
def test_pad_bits_never_reach_a_result(n):
    matrix = random_votes(8, n, seed=n)
    assert n % 8 and not np.any(np.unpackbits(matrix.bits, axis=1)[:, n:])
    # every pad bit set, past the checks that a real matrix went through
    padded = np.array(matrix.bits)
    padded[:, -1] |= np.uint8(0xFF >> (n % 8))
    dirty = PredictionMatrix._of_bits(padded, matrix.labels, n)
    assert not same_bits(dirty.bits, matrix.bits)
    assert_readers_match(dirty, Int8Matrix(matrix.entries, matrix.labels))


def test_gram_is_exact_past_float32s_integer_range():
    # one learner of 2**24 + 1 votes, 2 MB of bits: float32 accumulation
    # would round the total to 2**24.  Built around the constructor, so no
    # 134 MB label vector is made; gram reads no labels.  The 7 pad bits of
    # the last byte are set too, and must not count
    n = 2 ** 24 + 1
    assert np.float32(2 ** 24) + np.float32(1) == 2 ** 24
    wide = PredictionMatrix._of_bits(np.full((1, (n + 7) // 8), 0xFF, dtype=np.uint8), None, n)
    gram = wide.gram()
    assert gram.dtype == np.float64 and gram.tolist() == [[n]]


def test_prediction_matrix_allocates_one_bit_per_cell():
    # 1/8 byte per vote: no (T, n) array of votes is made, and a Dataset's
    # features are already in Fortran order, so they are not copied.  The
    # rest is each tree's boolean masks on 5,000 rows
    data = generate_synthetic("two-gaussians", 5000, 1.6, 1)
    model = random_forest(data, T=200, seed=1)
    cells = model.n_learners * data.n_rows
    tracemalloc.start()
    try:
        matrix = prediction_matrix(model, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.bits.nbytes * 8 == cells
    assert peak / cells < 0.3


TILED_PRODUCTS = """
import numpy as np

from margin_forge.ensemble import _TILE as TILE, PredictionMatrix
from margin_forge.margins import compute_margins
from margin_forge.reweight import _min_norm_fit, sm2_weights

# a last tile 1-3 columns wide is where unfolded tiles were seen to differ
tails = [k * TILE + r for k in (2, 3) for r in (0, 1, 2, 3, 4, 1568)]
shapes = [(T, n) for T in (1, 4, 5, 7, 8, 9, 100)
          for n in [1, 100, TILE - 1, TILE + 3, 2 * TILE - 1, *tails]]
shapes += [(500, n) for n in (2 * TILE + 1, 2 * TILE + 3, 3 * TILE + 2, 9 * TILE + 1568)]
rng = np.random.default_rng(31)
for T, n in shapes:
    votes = rng.integers(0, 2, size=(T, n), dtype=np.int8).astype(np.float32) * 2 - 1
    matrix = PredictionMatrix(votes, np.where(rng.random(n) < 0.5, -1.0, 1.0))
    alpha = rng.random(T) + 0.1
    alpha /= alpha.sum()
    full = matrix.entries.astype(float)
    want = alpha @ full
    assert compute_margins(matrix, alpha).margins.tobytes() == want.tobytes(), (T, n)
    assert matrix.gram().tobytes() == (full @ full.T).tobytes(), (T, n)
    mean = float(want.mean())
    coef = _min_norm_fit(matrix, mean)
    sse = float(np.sum((coef @ full - mean) ** 2))
    assert sm2_weights(matrix, alpha).objective.hex() == sse.hex(), (T, n)
print("ok", len(shapes))
"""


def test_tiled_products_equal_the_full_cast_at_one_blas_thread():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", TILED_PRODUCTS], capture_output=True,
                         text=True, encoding="utf-8", env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ok", "123"]


@pytest.fixture(scope="module")
def scoring_sized():
    # snapshot-score's shape: 500 learners over 20,000 rows, unequal weights
    rng = np.random.default_rng(8)
    votes = rng.integers(0, 2, size=(500, 20000), dtype=np.int8).astype(np.float32) * 2 - 1
    alpha = rng.random(500) + 0.1
    return PredictionMatrix(votes, np.ones(20000)), alpha / alpha.sum()


@pytest.mark.parametrize("reader", [compute_margins, sm2_weights])
def test_weighted_readers_peak_below_an_eighth_of_one_float64_cast(reader, scoring_sized):
    # a full float64 cast of the entries would be 80 MB by itself, and a
    # float32 one for sm2's Gram matrix 40 MB; one tile buffer is at most
    # 500 x (2 * _TILE - 1) float64 cells, 4.1 MB
    matrix, alpha = scoring_sized
    tracemalloc.start()
    try:
        reader(matrix, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
