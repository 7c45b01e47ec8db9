import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import predict_oracle
import split_oracle
from bench_data import sonar_like
from margin_forge.cart import (
    SplitScratch, Tree, TreeParams, best_split, column_order, fit_tree,
)
from margin_forge.dataset_io import generate_synthetic, stratified_split
from margin_forge.ensemble import PredictionMatrix, adaboost, prediction_matrix, random_forest
from stump_oracle import all_candidates, best_stump


def stump_params():
    return TreeParams(max_depth=1, max_leaves=2)


def test_one_dimensional_midpoint():
    x = np.array([[1.0], [2.0]])
    y = np.array([-1.0, 1.0])
    tree = fit_tree(x, y, params=stump_params())
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5
    assert tree.predict(np.array([[1.4], [1.6]])).tolist() == [-1.0, 1.0]


def test_xor_needs_depth_two():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    stump = fit_tree(x, y, params=stump_params())
    assert np.mean(stump.predict(x) != y) > 0  # no single split separates xor
    tree = fit_tree(x, y)  # defaults: depth 2, four leaves
    assert np.array_equal(tree.predict(x), y)
    assert np.sum(tree.feature < 0) <= 4


def test_tie_break_prefers_lowest_feature():
    x0 = np.array([[0.0], [1.0], [2.0], [3.0]])
    # identical copies of the same feature: split decreases tie bit-for-bit
    x = np.hstack([x0, x0, x0])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    tree = fit_tree(x, y, params=stump_params())
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5


def test_tie_break_prefers_lowest_threshold():
    # symmetric pattern - + + -: splitting at 0.5 or 2.5 gives equal decrease
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    found = best_split(x, y, np.full(4, 0.25), np.arange(4), column_order(x), [0], 1e-12)
    assert found is not None and found[2] == 0.5


def test_pure_node_grows_nothing():
    x = np.arange(6, dtype=float).reshape(6, 1)
    y = np.full(6, 1.0)
    tree = fit_tree(x, y)
    assert tree.feature[0] < 0 and tree.value[0] == 1.0


def test_zero_weighted_label_sum_leaf_is_positive():
    x = np.array([[0.0], [0.0]])
    y = np.array([-1.0, 1.0])
    tree = fit_tree(x, y)  # single distinct value, no split possible
    assert tree.feature[0] < 0 and tree.value[0] == 1.0


def test_max_leaves_caps_growth():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 4))
    y = np.where(rng.random(200) < 0.5, -1.0, 1.0)
    tree = fit_tree(x, y, params=TreeParams(max_depth=2, max_leaves=3))
    assert np.sum(tree.feature < 0) <= 3


def test_depth_limit_respected():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 3))
    y = np.where(x[:, 0] * x[:, 1] > 0, 1.0, -1.0)
    tree = fit_tree(x, y)
    # children follow their parent, so one forward pass sets every depth
    depth = np.zeros(tree.feature.size, dtype=int)
    for node in np.flatnonzero(tree.feature >= 0):
        depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    assert depth.max() <= 2


def test_feature_subset_restricts_splits():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((80, 5))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)  # feature 0 is the informative one
    tree = fit_tree(x, y, feature_subset=[3, 4])
    assert set(tree.feature[tree.feature >= 0].tolist()) <= {3, 4}


def test_feature_subset_must_be_integer_indices():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 3))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    # 2.7 is not read as feature 2, nor a mask as the indices {0, 1}
    for bad in ([2.7], [False, False, True], np.array([True, False, True])):
        with pytest.raises(ValueError, match="integer"):
            fit_tree(x, y, feature_subset=bad)


def test_params_validated():
    with pytest.raises(ValueError):
        TreeParams(max_depth=2, max_leaves=5)
    with pytest.raises(ValueError):
        TreeParams(max_depth=0)
    with pytest.raises(ValueError):
        TreeParams(max_depth=3, max_leaves=1)
    with pytest.raises(ValueError):
        TreeParams(min_leaf_weight=0.0)
    with pytest.raises(ValueError):
        fit_tree(np.zeros((2, 1)), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        fit_tree(np.zeros((2, 1)), np.array([-1.0, 1.0]), weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="sum to 1"):
        fit_tree(np.zeros((2, 1)), np.array([-1.0, 1.0]), weights=np.array([2.0, 2.0]))


def test_stump_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, 5))
        x = np.round(rng.standard_normal((n, p)) * 3, 1)  # force repeated values
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        w = rng.random(n) + 0.01
        w /= w.sum()
        got = best_split(x, y, w, np.arange(n), column_order(x), np.arange(p), 1e-12)
        want = best_stump(x, y, w)
        if want is None:
            assert got is None
            continue
        assert got is not None
        # optimality: decreases agree even if a float tie picks another cut
        assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-12)
        others = [dec for dec, f, thr in all_candidates(x, y, w)
                  if (f, thr) != (want[1], want[2])]
        gap_free = not others or want[0] - max(others) > 1e-9
        if gap_free:
            assert (got[1], got[2]) == (want[1], want[2])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), p=st.integers(1, 5),
       levels=st.integers(1, 8), twin=st.booleans(),
       min_leaf_weight=st.sampled_from([1e-12, 0.05, 0.2, 0.45]))
def test_split_matches_per_feature_reference(seed, n, p, levels, twin, min_leaf_weight):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, p)) * 0.5  # few levels: repeated values
    if twin and p > 1:
        x[:, -1] = x[:, 0]  # equal decreases on two features: the tie rule decides
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    counts = rng.integers(0, 3, size=n)  # bootstrap-like counts give zero weights
    w = counts / max(counts.sum(), 1)
    idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    features = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
    got = best_split(x, y, w, idx, column_order(x)[features], features, min_leaf_weight)
    assert got == split_oracle.best_split(x, y, w, idx, features, min_leaf_weight)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), p=st.integers(2, 5),
       levels=st.integers(1, 6),
       min_leaf_weight=st.sampled_from([1e-300, 1e-12, 0.05, 0.3]))
def test_reused_scratch_keeps_no_state(seed, n, p, levels, min_leaf_weight):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, p)) * 0.5  # few levels: tied values
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    counts = rng.integers(0, 3, size=n)  # bootstrap-like counts give zero weights
    w = counts / max(counts.sum(), 1)
    order = column_order(x)
    root, every = np.arange(n), np.arange(p)
    child = np.sort(rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False))
    subset = np.sort(rng.choice(p, size=int(rng.integers(1, p)), replace=False))
    scratch = SplitScratch(p, n)
    for idx, features in ((root, every), (child, every), (child, subset), (root, every)):
        got = best_split(x, y, w, idx, order[features], features, min_leaf_weight, scratch)
        assert got == best_split(x, y, w, idx, order[features], features, min_leaf_weight)
        assert got == split_oracle.best_split(x, y, w, idx, features, min_leaf_weight)


def test_scratch_too_small_refused():
    x = np.arange(8.0).reshape(4, 2)
    y = np.array([-1.0, 1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="scratch"):
        best_split(x, y, np.full(4, 0.25), np.arange(4), column_order(x), [0, 1], 1e-12,
                   SplitScratch(1, 4))


def sonar_training_rows():
    train, _ = stratified_split(sonar_like(), 0.7, seed=0)
    return train.features, train.labels


def test_root_split_allocates_no_node_block():
    x, y = sonar_training_rows()
    n, p = x.shape
    assert (n, p) == (147, 60)
    args = (x, y, np.full(n, 1.0 / n), np.arange(n), column_order(x), np.arange(p), 1e-12,
            SplitScratch(p, n))
    want = best_split(*args)
    tracemalloc.start()
    try:
        got = best_split(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # one (F, n) float block is p * n * 8 bytes; without the scratch a
    # root search allocates about a dozen of them
    assert peak < 3 * p * n * 8


def test_fortran_ordered_features_fit_the_same_tree():
    x, y = sonar_training_rows()
    rng = np.random.default_rng(13)
    for subset in (None, [4, 9, 31, 59]):
        w = rng.random(y.size)
        w /= w.sum()
        a = fit_tree(x, y, weights=w, feature_subset=subset)
        b = fit_tree(np.asfortranarray(x), y, weights=w, feature_subset=subset)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_order_shape_checked():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match="order"):
        fit_tree(x, np.array([-1.0, 1.0, 1.0]), order=column_order(x[:, :1]))


def test_stump_never_worse_than_majority():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(4, 30))
        x = rng.standard_normal((n, 2))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        w = rng.random(n)
        w /= w.sum()
        tree = fit_tree(x, y, weights=w, params=stump_params())
        stump_err = float(w[tree.predict(x) != y].sum())
        majority = 1.0 if float(np.dot(w, y)) >= 0 else -1.0
        base_err = float(w[y != majority].sum())
        assert stump_err <= base_err + 1e-12


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 4))
    y = np.where(x[:, 1] + 0.3 * x[:, 2] > 0, 1.0, -1.0)
    tree = fit_tree(x, y)
    clone = Tree.from_dict(json.loads(json.dumps(tree.to_dict())))
    assert clone.to_dict() == tree.to_dict()
    assert np.array_equal(clone.predict(x), tree.predict(x))


def test_fit_deterministic():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 3))
    y = np.where(rng.random(50) < 0.5, -1.0, 1.0)
    w = rng.random(50)
    w /= w.sum()
    a = fit_tree(x, y, weights=w)
    b = fit_tree(x, y, weights=w)
    assert a.to_dict() == b.to_dict()


def test_weight_scale_invariance():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((40, 3))
    y = np.where(rng.random(40) < 0.5, -1.0, 1.0)
    w = rng.random(40)
    w /= w.sum()
    doubled_then_renormalized = (2.0 * w) / (2.0 * w).sum()
    a = fit_tree(x, y, weights=w)
    b = fit_tree(x, y, weights=doubled_then_renormalized)
    assert a.to_dict() == b.to_dict()


def test_predictions_are_signs():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 2))
    y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    tree = fit_tree(x, y)
    assert set(np.unique(tree.predict(x))) <= {-1.0, 1.0}


def test_route_left_on_equal_value():
    tree = Tree.from_dict({"n_features": 1, "feature": [0, -1, -1],
                           "threshold": [1.0, 0.0, 0.0], "left": [1, -1, -1],
                           "right": [2, -1, -1], "value": [1.0, -1.0, 1.0]})
    assert tree.predict(np.array([[1.0]]))[0] == -1.0  # boundary goes left
    assert tree.predict(np.array([[1.0 + 1e-12]]))[0] == 1.0


def random_tree(rng, p, max_depth, thresholds):
    """A valid tree of random shape, children appended after their parent."""
    blob = {"n_features": p, "feature": [-1], "threshold": [0.0], "left": [-1],
            "right": [-1], "value": [float(rng.choice([-1.0, 1.0]))]}
    pending = [(0, 0)]
    while pending:
        node, depth = pending.pop(int(rng.integers(len(pending))))
        if depth >= max_depth or rng.random() < 0.3:
            continue
        blob["feature"][node] = int(rng.integers(p))
        blob["threshold"][node] = float(rng.choice(thresholds))
        blob["left"][node], blob["right"][node] = len(blob["value"]), len(blob["value"]) + 1
        for _ in range(2):
            pending.append((len(blob["value"]), depth + 1))
            blob["feature"].append(-1)
            blob["threshold"].append(0.0)
            blob["left"].append(-1)
            blob["right"].append(-1)
            blob["value"].append(float(rng.choice([-1.0, 1.0])))
    return Tree.from_dict(blob)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), p=st.integers(1, 4),
       max_depth=st.integers(0, 4), layout=st.sampled_from(["C", "F", "strided"]))
def test_predict_matches_row_subset_reference(seed, n, p, max_depth, layout):
    rng = np.random.default_rng(seed)
    thresholds = rng.integers(-3, 4, size=int(rng.integers(1, 4))) * 0.5
    tree = random_tree(rng, p, max_depth, thresholds)
    # about half the values sit exactly on a threshold, where rows go left
    x = np.where(rng.random((n, p)) < 0.5, rng.choice(thresholds, size=(n, p)),
                 rng.normal(0.0, 1.5, size=(n, p)))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        wide = np.zeros((2 * n, 2 * p))
        wide[::2, 1::2] = x
        x = wide[::2, 1::2]
    got = tree.predict(x)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got, predict_oracle.predict(tree, x))


def test_predict_nan_goes_right():
    tree = Tree.from_dict({"n_features": 1, "feature": [0, -1, -1],
                           "threshold": [1.0, 0.0, 0.0], "left": [1, -1, -1],
                           "right": [2, -1, -1], "value": [1.0, -1.0, 1.0]})
    x = np.array([[np.nan], [1.0]])
    assert tree.predict(x).tolist() == predict_oracle.predict(tree, x).tolist() == [1.0, -1.0]


@pytest.mark.parametrize("fit", [lambda d: random_forest(d, T=25, seed=4),
                                 lambda d: adaboost(d, T=15)])
def test_prediction_matrix_matches_reference_columns(fit):
    data = generate_synthetic("ring-vs-disk", 120, 0.3, seed=11)
    model = fit(data)
    full = prediction_matrix(model, data)
    entries = full.entries
    # the matrix stores signed votes: each oracle row times the labels
    want = np.stack([predict_oracle.predict(tree, data.features) for tree in model.trees])
    assert np.array_equal(entries, want * data.labels)
    assert entries.flags.c_contiguous and not entries.flags.writeable
    # a prefix ensemble's matrix is a view of the leading rows, not a copy
    prefix = PredictionMatrix(full.entries[:5], data.labels)
    assert np.shares_memory(prefix.entries, full.entries)
