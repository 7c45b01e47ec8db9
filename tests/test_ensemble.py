import json
import math
import tracemalloc

import numpy as np
import pytest

from margin_forge.cart import Tree, TreeParams
from margin_forge.dataset_io import Dataset, generate_synthetic
from margin_forge.ensemble import (
    EnsembleError, EnsembleModel, PredictionMatrix, adaboost, bagging,
    load_model, prediction_matrix, random_forest, save_model,
)
from replay_oracle import replay_distributions
from vote_oracle import predict
from vote_oracle import test_error as error_rate  # avoid test collection


def spiral_like(n=40, seed=3, noise=1.6):
    return generate_synthetic("two-gaussians", n, noise, seed)


def stump(threshold):
    """One-feature stump voting -1 for x <= threshold and +1 above it."""
    return Tree.from_dict({"n_features": 1, "feature": [0, -1, -1],
                           "threshold": [threshold, 0.0, 0.0], "left": [1, -1, -1],
                           "right": [2, -1, -1], "value": [1.0, -1.0, 1.0]})


def always_plus():
    return Tree.from_dict({"n_features": 1, "feature": [-1], "threshold": [0.0],
                           "left": [-1], "right": [-1], "value": [1.0]})


def test_alpha_closed_form():
    # a quarter of the weight wrong gives alpha = half the log of 3
    assert 0.5 * math.log((1 - 0.25) / 0.25) == pytest.approx(0.549306, abs=1e-6)
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([-1.0, -1.0, 1.0, -1.0])
    model = adaboost(Dataset("q", x, y), T=1, params=TreeParams(max_depth=1, max_leaves=2))
    # stump splits at 2.5 leaving exactly one of four points wrong
    assert model.raw_alphas[0] == pytest.approx(0.5 * math.log(3), abs=1e-12)


def test_perfect_first_tree_breaks_with_one_learner():
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    model = adaboost(Dataset("sep", x, y), T=25)
    assert model.n_learners == 1
    assert "perfectly" in model.break_reason
    assert model.vote_weights[0] == 1.0
    assert error_rate(model, Dataset("sep", x, y)) == 0.0


def test_rounds_that_do_not_run_allocate_nothing():
    # the classes lie far apart, so the first round is perfect and ends the loop;
    # a buffer sized for T rounds would trace 240 MB here
    data = generate_synthetic("two-gaussians", 60, 0.1, 3)
    tracemalloc.start()
    try:
        model = adaboost(data, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_learners == 1
    assert peak < 1_000_000


def test_useless_first_tree_is_an_error():
    # one distinct feature value: no split exists, constant +1 tree errs 1/2
    x = np.zeros((4, 1))
    y = np.array([-1.0, 1.0, -1.0, 1.0])
    with pytest.raises(EnsembleError, match="chance"):
        adaboost(Dataset("flat", x, y), T=5)


def test_dropped_round_leaves_no_training_row():
    # one distinct value, so every tree is one leaf: the first errs on one row
    # of four, and the second, on the reweighted rows, on half the weight
    data = Dataset("flat", np.zeros((4, 1)), np.array([1.0, 1.0, 1.0, -1.0]))
    model = adaboost(data, T=5)
    assert "chance" in model.break_reason
    assert model.train_matrix.n_learners == model.n_learners == 1
    assert np.array_equal(model.train_matrix.entries, prediction_matrix(model, data).entries)


def test_half_error_identity():
    data = spiral_like(n=20, seed=5)
    model = adaboost(data, T=10)
    history = replay_distributions(model, data)
    assert history.shape[0] == model.n_learners + 1
    x, y = data.features, data.labels
    upto = model.n_learners if model.break_reason is None else model.n_learners - 1
    assert upto >= 1  # identity needs at least one completed non-breaking round
    for t in range(upto):
        wrong = model.trees[t].predict(x) != y
        err_next = history[t + 1][wrong].sum()
        assert err_next == pytest.approx(0.5, abs=1e-12)


def test_distributions_are_probability_vectors():
    data = spiral_like(n=30, seed=8)
    model = adaboost(data, T=12)
    history = replay_distributions(model, data)
    assert np.all(history >= 0)
    assert np.allclose(history.sum(axis=1), 1.0, atol=1e-12)


def test_boosting_drives_training_error_to_zero():
    data = spiral_like(n=40, seed=3, noise=1.2)
    model = adaboost(data, T=60)
    matrix = prediction_matrix(model, data)
    raw = matrix.entries * matrix.labels   # raw votes, since y * y = 1
    scores = np.cumsum(raw * model.raw_alphas[:, None], axis=0)
    votes = np.where(scores >= 0, 1.0, -1.0)
    prefix_errors = np.mean(votes != data.labels, axis=1)
    assert prefix_errors[-1] == 0.0
    assert np.all(np.diff(prefix_errors) <= 1e-12)  # non-increasing on this set


def test_forest_uniform_weights_and_determinism():
    data = spiral_like(n=30, seed=1)
    a = random_forest(data, T=7, seed=42)
    b = random_forest(data, T=7, seed=42)
    assert np.all(a.vote_weights == 1.0 / 7)
    assert [t.to_dict() for t in a.trees] == [t.to_dict() for t in b.trees]
    c = random_forest(data, T=7, seed=43)
    assert [t.to_dict() for t in a.trees] != [t.to_dict() for t in c.trees]


def test_forest_mtry_defaults_to_ceil_sqrt_p():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 10))
    y = np.where(rng.random(60) < 0.5, -1.0, 1.0)
    data = Dataset("wide", x, y)
    model = random_forest(data, T=5, seed=0)
    for tree in model.trees:
        used = {f for f in tree.feature if f >= 0}
        assert len(used) <= math.ceil(math.sqrt(10))  # 4


def test_bagging_equals_full_mtry_forest():
    data = spiral_like(n=30, seed=6)
    bag = bagging(data, T=5, seed=4)
    forest = random_forest(data, T=5, m_try=data.n_features, seed=4)
    assert bag.method == "bagging"
    assert [t.to_dict() for t in bag.trees] == [t.to_dict() for t in forest.trees]
    assert np.all(bag.vote_weights == 0.2)


def test_prediction_matrix_hand_built():
    model = EnsembleModel("bagging", (stump(0.5), always_plus()), np.ones(2), TreeParams())
    data = Dataset("two", np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]))
    matrix = prediction_matrix(model, data)
    # signed votes: the stump is right on both rows, always-plus errs on row 0
    assert matrix.entries.tolist() == [[1.0, 1.0], [-1.0, 1.0]]
    assert matrix.n_rows == 2 and matrix.n_learners == 2


def test_tie_vote_resolves_positive():
    model = EnsembleModel("bagging", (stump(0.5), always_plus()), np.ones(2), TreeParams())
    # row 0 scores 0.5*(-1) + 0.5*(+1) = 0, the tie goes to +1
    assert predict(model, np.array([[0.0]]))[0] == 1.0


def test_error_matches_matrix_route():
    data = spiral_like(n=50, seed=7)
    model = random_forest(data, T=9, seed=5)
    direct = error_rate(model, data)
    matrix = prediction_matrix(model, data)
    raw = matrix.entries * matrix.labels   # raw votes, since y * y = 1
    votes = np.where(model.vote_weights @ raw >= 0, 1.0, -1.0)
    assert direct == float(np.mean(votes != data.labels))


def test_model_validation():
    tree = always_plus()
    with pytest.raises(ValueError, match="method"):
        EnsembleModel("mystery", (tree,), np.array([1.0]), TreeParams())
    with pytest.raises(ValueError, match="at least one"):
        EnsembleModel("bagging", (), np.array([]), TreeParams())
    with pytest.raises(ValueError, match="nonnegative"):
        EnsembleModel("bagging", (tree, tree), np.array([1.0, -0.5]), TreeParams())
    with pytest.raises(ValueError, match="positive sum"):
        EnsembleModel("bagging", (tree, tree), np.zeros(2), TreeParams())
    # the old call passed vote_weights before raw_alphas: it cannot bind
    # raw_alphas to the tree parameters
    with pytest.raises(TypeError):
        EnsembleModel("bagging", (tree,), np.array([1.0]), np.array([1.0]), TreeParams())
    one_row = PredictionMatrix(np.ones((1, 2)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="one row per learner"):
        EnsembleModel("bagging", (tree, tree), np.ones(2), TreeParams(), train_matrix=one_row)
    model = EnsembleModel("bagging", (tree, tree), np.array([3.0, 1.0]), TreeParams())
    assert model.vote_weights.tolist() == [0.75, 0.25]
    with pytest.raises(ValueError):
        model.vote_weights[0] = 0.5
    with pytest.raises(AttributeError):
        model.vote_weights = np.array([0.5, 0.5])


def test_prediction_matrix_validation():
    labels = np.array([1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="T >= 1"):
        PredictionMatrix(np.empty((0, 3)), labels)
    with pytest.raises(ValueError, match="one label per row"):
        PredictionMatrix(np.ones((3, 2)), labels)   # one row per observation
    with pytest.raises(ValueError, match="-1 or"):
        PredictionMatrix(np.zeros((2, 3)), labels)
    matrix = PredictionMatrix(np.ones((2, 3)), labels)
    assert (matrix.n_learners, matrix.n_rows) == (2, 3)


def test_snapshot_roundtrip(tmp_path):
    data = spiral_like(n=30, seed=9)
    model = adaboost(data, T=8)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert clone.method == model.method
    assert np.array_equal(clone.vote_weights, model.vote_weights)
    assert np.array_equal(clone.raw_alphas, model.raw_alphas)
    assert [t.to_dict() for t in clone.trees] == [t.to_dict() for t in model.trees]
    assert error_rate(clone, data) == error_rate(model, data)
    # the training votes are not written, and the snapshot of the clone is the same bytes
    assert model.train_matrix is not None and clone.train_matrix is None
    again = tmp_path / "again.json"
    save_model(clone, again)
    assert again.read_bytes() == path.read_bytes()
    blob = json.loads(path.read_text())
    assert "vote_weights" not in blob
    # an older snapshot also wrote vote_weights; the weights derive from raw_alphas
    blob["vote_weights"] = np.full(model.n_learners, 1.0 / model.n_learners).tolist()
    path.write_text(json.dumps(blob))
    old = load_model(path)
    assert np.array_equal(old.vote_weights, model.raw_alphas / model.raw_alphas.sum())
