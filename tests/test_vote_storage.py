"""Signed votes stored in int8: what the storage costs and what it must not change.

PredictionMatrix is the one owner of the int8 vote format: its readers
(vote_counts, learner_sums, weighted_sum, gram) are the only code that
knows it.  Each reader's result on a stored matrix must equal, bit for
bit, its result on the same entries held in float64 (`float64_twin`).
Float input is checked before it is narrowed, since int8 would truncate
0.5 or 1.5 to a vote; int8 input is checked by its range and its nonzero
count.

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

from margin_forge import reweight
from margin_forge.bounds import germain_bound, gibbs_risk
from margin_forge.dataset_io import generate_synthetic
from margin_forge.ensemble import PredictionMatrix, adaboost, prediction_matrix, random_forest
from margin_forge.margins import compute_margins
from margin_forge.reweight import apply_scheme, parse_spec, sm2_weights

SRC = Path(__file__).resolve().parents[1] / "src"


def float64_twin(matrix):
    """The same votes held in float64, built around the narrowing in
    PredictionMatrix.__post_init__."""
    twin = object.__new__(PredictionMatrix)
    object.__setattr__(twin, "entries", matrix.entries.astype(float))
    object.__setattr__(twin, "labels", matrix.labels)
    return twin


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
    data = generate_synthetic("two-gaussians", 150, 1.6, 7)
    model = adaboost(data, T=25)
    return prediction_matrix(model, data), model.vote_weights


def test_entries_are_c_ordered_read_only_int8(forest):
    matrix, _ = forest
    assert matrix.entries.dtype == np.int8
    assert matrix.entries.flags.c_contiguous and not matrix.entries.flags.writeable
    assert matrix.labels.dtype == np.float64
    narrowed = PredictionMatrix(np.asarray(matrix.entries, dtype=float), matrix.labels)
    assert same_bits(narrowed.entries, matrix.entries)
    # C-ordered int8 input is kept as it is, not copied
    votes = np.array(matrix.entries)
    assert PredictionMatrix(votes, matrix.labels).entries is votes


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
    assert same_bits(got, compute_margins(float64_twin(matrix), equal).margins)
    matrix, unequal = boosted
    got = compute_margins(matrix, unequal).margins
    assert same_bits(got, unequal @ matrix.entries.astype(float))
    assert same_bits(got, compute_margins(float64_twin(matrix), unequal).margins)
    # unequal weights whose vote cancels exactly on the first row
    hand = PredictionMatrix(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]),
                            np.array([1.0, -1.0]))
    w = np.array([0.25, 0.25, 0.5])
    got = compute_margins(hand, w).margins
    assert got[0] == 0.0
    assert same_bits(got, compute_margins(float64_twin(hand), w).margins)


def test_bounds_match_float64_storage(forest, boosted):
    for matrix, w in (forest, boosted):
        twin = float64_twin(matrix)
        assert same_bits(gibbs_risk(matrix, w), gibbs_risk(twin, w))
        got, want = germain_bound(matrix, w), germain_bound(twin, w)
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
    assert_same_result(sm2_weights(matrix, w), sm2_weights(float64_twin(matrix), w))


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
    assert_same_result(sm2_weights(matrix, w), sm2_weights(float64_twin(matrix), w))
    assert calls == [np.float64] * 2 and solved == [np.float64] * 2


@pytest.mark.parametrize("text", ["uws", "pws:0.1", "sm1:0.05", "sm1:0.4"])
def test_margin_lp_schemes_match_float64_storage(text, forest, boosted, monkeypatch):
    # the LP each scheme hands the solver must be the float64 one, byte for byte
    stated = []
    solve = reweight.solve
    monkeypatch.setattr(reweight, "solve", lambda lp: stated.append(lp) or solve(lp))
    feasible = []
    for matrix, w in (forest, boosted):
        got = apply_scheme(parse_spec(text), matrix, w)
        want = apply_scheme(parse_spec(text), float64_twin(matrix), w)
        assert_same_result(got, want)
        feasible.append(got.feasible)
        mine, theirs = stated[-2:]
        for name in ("objective", "a_ge", "b_ge", "a_eq", "b_eq", "upper"):
            assert same_bits(getattr(mine, name), getattr(theirs, name)), name
    if text == "sm1:0.4":
        # the floors at the 0.4-quantile are out of reach on one of the two
        assert not all(feasible)


def test_gram_is_exact_past_float32s_integer_range():
    # one learner of 2**24 + 1 votes: float32 accumulation would round the
    # total to 2**24.  Built around __post_init__, as float64_twin is, so no
    # 134 MB label vector is made; gram reads no labels
    n = 2 ** 24 + 1
    assert np.float32(2 ** 24) + np.float32(1) == 2 ** 24
    wide = object.__new__(PredictionMatrix)
    object.__setattr__(wide, "entries", np.ones((1, n), dtype=np.int8))
    object.__setattr__(wide, "labels", None)
    gram = wide.gram()
    assert gram.dtype == np.float64 and gram.tolist() == [[n]]


def test_prediction_matrix_allocates_one_byte_per_cell():
    # 1 byte per int8 entry, and the int8 check makes no per-cell temporary:
    # measured at 1.12, the rest being each tree's predictions on 5,000 rows.
    # float32 entries cost 6, 4 for the entry and 2 for a boolean scan
    data = generate_synthetic("two-gaussians", 5000, 1.6, 1)
    model = random_forest(data, T=200, seed=1)
    cells = model.n_learners * data.n_rows
    fortran_copy = data.features.nbytes
    tracemalloc.start()
    try:
        matrix = prediction_matrix(model, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.entries.size == cells
    assert (peak - fortran_copy) / cells < 1.25


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
