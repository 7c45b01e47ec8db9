import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import predict_oracle
import split_oracle
import tree_oracle
from bench_data import ionosphere_like, pima_like, sonar_like
from margin_forge.cart import Tree, TreeLayout, TreeParams, fit_tree
from margin_forge.dataset_io import generate_synthetic, stratified_split
from margin_forge.ensemble import (
    PredictionMatrix, adaboost, bagging, prediction_matrix, random_forest,
)
from stump_oracle import all_candidates, best_stump


def stump_params():
    return TreeParams(max_depth=1, max_leaves=2)


def root_split(x, y, w, features=None, min_leaf_weight=1e-12):
    layout = TreeLayout(x, y)
    layout.start_tree(w, features)
    return layout.root_split(min_leaf_weight)


def test_one_dimensional_midpoint():
    x = np.array([[1.0], [2.0]])
    y = np.array([-1.0, 1.0])
    tree = fit_tree(TreeLayout(x, y), params=stump_params())
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5
    assert tree.predict(np.array([[1.4], [1.6]])).tolist() == [-1.0, 1.0]


def test_xor_needs_depth_two():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    stump = fit_tree(TreeLayout(x, y), params=stump_params())
    assert np.mean(stump.predict(x) != y) > 0  # no single split separates xor
    tree = fit_tree(TreeLayout(x, y))  # defaults: depth 2, four leaves
    assert np.array_equal(tree.predict(x), y)
    assert np.sum(np.array(tree.feature) < 0) <= 4


def test_tie_break_prefers_lowest_feature():
    x0 = np.array([[0.0], [1.0], [2.0], [3.0]])
    # identical copies of the same feature: split decreases tie bit-for-bit
    x = np.hstack([x0, x0, x0])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    tree = fit_tree(TreeLayout(x, y), params=stump_params())
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5


def test_tie_break_prefers_lowest_threshold():
    # symmetric pattern - + + -: splitting at 0.5 or 2.5 gives equal decrease
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    found = root_split(x, y, np.full(4, 0.25))
    assert found is not None and found[2] == 0.5


def test_pure_node_grows_nothing():
    x = np.arange(6, dtype=float).reshape(6, 1)
    y = np.full(6, 1.0)
    tree = fit_tree(TreeLayout(x, y))
    assert tree.feature[0] < 0 and tree.value[0] == 1.0


def test_zero_weighted_label_sum_leaf_is_positive():
    x = np.array([[0.0], [0.0]])
    y = np.array([-1.0, 1.0])
    tree = fit_tree(TreeLayout(x, y))  # single distinct value, no split possible
    assert tree.feature[0] < 0 and tree.value[0] == 1.0


def test_max_leaves_caps_growth():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 4))
    y = np.where(rng.random(200) < 0.5, -1.0, 1.0)
    tree = fit_tree(TreeLayout(x, y), params=TreeParams(max_depth=2, max_leaves=3))
    assert np.sum(np.array(tree.feature) < 0) <= 3


def test_depth_limit_respected():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 3))
    y = np.where(x[:, 0] * x[:, 1] > 0, 1.0, -1.0)
    tree = fit_tree(TreeLayout(x, y))
    # children follow their parent, so one forward pass sets every depth
    depth = np.zeros(len(tree.feature), dtype=int)
    for node in np.flatnonzero(np.array(tree.feature) >= 0):
        depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    assert depth.max() <= 2


def test_feature_subset_restricts_splits():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((80, 5))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)  # feature 0 is the informative one
    tree = fit_tree(TreeLayout(x, y), feature_subset=[3, 4])
    assert {f for f in tree.feature if f >= 0} <= {3, 4}


def test_feature_subset_must_be_integer_indices():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 3))
    y = np.where(x[:, 0] > 0, 1.0, -1.0)
    # 2.7 is not read as feature 2, nor a mask as the indices {0, 1}
    for bad in ([2.7], [False, False, True], np.array([True, False, True])):
        with pytest.raises(ValueError, match="integer"):
            fit_tree(TreeLayout(x, y), feature_subset=bad)


def test_params_check_a_huge_depth_without_forming_its_power():
    # 2 ** (10 ** 400) would never finish; a snapshot or config can ask for it
    assert TreeParams(max_depth=10 ** 400, max_leaves=4).max_leaves == 4
    assert TreeParams(max_depth=64, max_leaves=2 ** 64).max_leaves == 2 ** 64
    with pytest.raises(ValueError, match="max_leaves"):
        TreeParams(max_depth=10 ** 400, max_leaves=2 ** 64 + 1)


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
        fit_tree(TreeLayout(np.zeros((2, 1)), np.array([0.0, 1.0])))
    layout = TreeLayout(np.zeros((2, 1)), np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        fit_tree(layout, weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="sum to 1"):
        fit_tree(layout, weights=np.array([2.0, 2.0]))


def test_stump_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, 5))
        x = np.round(rng.standard_normal((n, p)) * 3, 1)  # force repeated values
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        w = rng.random(n) + 0.01
        w /= w.sum()
        got = root_split(x, y, w)
        want = best_stump(x, y, w)
        # the root search and a child search over every row find the same cut
        layout = TreeLayout(x, y)
        layout.start_tree(w)
        assert layout.child_splits([np.arange(n)], 1e-12) == [got]
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
    rest = np.setdiff1d(np.arange(n), idx)
    features = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
    want = split_oracle.best_split(x, y, w, idx, features, min_leaf_weight)
    layout = TreeLayout(x, y)
    layout.start_tree(w, features)
    assert layout.child_splits([idx], min_leaf_weight) == [want]
    # two nodes searched together: each block is scored on its own
    assert layout.child_splits([rest, idx], min_leaf_weight) == [
        split_oracle.best_split(x, y, w, rest, features, min_leaf_weight), want]
    if rest.size == 0:
        assert layout.root_split(min_leaf_weight) == want


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), p=st.integers(2, 5),
       levels=st.integers(1, 6),
       min_leaf_weight=st.sampled_from([1e-300, 1e-12, 0.05, 0.3]))
def test_reused_scratch_keeps_no_state(seed, n, p, levels, min_leaf_weight):
    # one layout serves every tree of a training set: a search must not read
    # what an earlier tree or node left in its buffers
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, p)) * 0.5  # few levels: tied values
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    layout = TreeLayout(x, y)
    every = np.arange(p)
    child = np.sort(rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False))
    other = np.setdiff1d(np.arange(n), child)
    subset = np.sort(rng.choice(p, size=int(rng.integers(1, p)), replace=False))
    for features in (every, subset, every):
        counts = rng.integers(0, 3, size=n)  # bootstrap-like counts give zero weights
        w = counts / max(counts.sum(), 1)
        fresh = TreeLayout(x, y)
        fresh.start_tree(w, features)
        layout.start_tree(w, features)
        want = [split_oracle.best_split(x, y, w, idx, features, min_leaf_weight)
                for idx in (child, other)]
        assert layout.root_split(min_leaf_weight) == fresh.root_split(min_leaf_weight)
        assert layout.child_splits([child, other], min_leaf_weight) == want
        assert layout.child_splits([other], min_leaf_weight) == want[1:]
        assert layout.child_splits([child, other], min_leaf_weight) == want
        assert fresh.child_splits([child, other], min_leaf_weight) == want


def test_no_cut_spans_two_features():
    # Each feature is constant, so no cut exists.  In the flat buffer one
    # feature's last sorted value is followed by the next feature's first;
    # there the right side holds total - wl, the pairwise sum of the node's
    # weights less their sequential sum, which is a rounding residue that can
    # be positive and pass a tiny min_leaf_weight.
    rng = np.random.default_rng(21)
    n, p = 40, 3
    x = np.tile(np.arange(p, dtype=float), (n, 1))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    layout = TreeLayout(x, y)
    residues = 0
    for _ in range(50):
        w = rng.random(n)
        w /= w.sum()
        idx = np.sort(rng.choice(n, size=30, replace=False))
        residues += float(w[idx].sum()) - float(np.cumsum(w[idx])[-1]) > 0.0
        layout.start_tree(w)
        assert layout.root_split(1e-300) is None
        assert layout.child_splits([idx, np.setdiff1d(np.arange(n), idx)], 1e-300) == [None, None]
    assert residues > 0  # the case the test is about did occur


NODE_DTYPES = {"feature": np.intp, "threshold": float, "left": np.intp, "right": np.intp,
               "value": float}


def tree_bytes(tree):
    # the bytes of the node arrays trees were stored as when the digests were taken
    return [np.array(getattr(tree, name), dtype=dtype).tobytes()
            for name, dtype in NODE_DTYPES.items()]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), p=st.integers(1, 5),
       levels=st.integers(1, 8), twin=st.booleans(), subset=st.booleans(),
       depth_leaves=st.sampled_from([(d, k) for d in (1, 2, 3) for k in range(2, 2**d + 1)]),
       min_leaf_weight=st.sampled_from([1e-300, 1e-12, 0.05, 0.3]))
def test_fit_matches_per_node_oracle(seed, n, p, levels, twin, subset, depth_leaves,
                                     min_leaf_weight):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, p)) * 0.5  # few levels: tied values
    if twin and p > 1:
        x[:, -1] = x[:, 0]  # equal decreases on two features: the tie rule decides
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    counts = rng.integers(0, 3, size=n)  # bootstrap-like counts give zero weights
    counts[rng.integers(n)] += 1
    w = counts / counts.sum()
    features = (np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
                if subset else None)
    params = TreeParams(*depth_leaves, min_leaf_weight=min_leaf_weight)
    want = tree_oracle.fit_tree(x, y, w, params, features)
    layout = TreeLayout(x, y)
    for _ in range(2):  # a second fit on the same layout builds the same tree
        got = fit_tree(layout, weights=w, params=params, feature_subset=features)
        assert tree_bytes(got) == tree_bytes(want)
    assert tree_bytes(fit_tree(TreeLayout(x, y), weights=w, params=params,
                               feature_subset=features)) == tree_bytes(want)


def sonar_training_rows():
    train, _ = stratified_split(sonar_like(), 0.7, seed=0)
    return train.features, train.labels


def test_root_split_allocates_no_node_block():
    x, y = sonar_training_rows()
    n, p = x.shape
    assert (n, p) == (147, 60)
    layout = TreeLayout(x, y)
    w = np.random.default_rng(4).random(n)
    w /= w.sum()
    want = fit_tree(layout, w)
    assert np.sum(np.array(want.feature) >= 0) == 3  # a whole depth-2 tree: root and both children
    tracemalloc.start()
    try:
        got = fit_tree(layout, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree_bytes(got) == tree_bytes(want)
    # one (F, n) float block is p * n * 8 bytes; a fit that searched in
    # temporaries would allocate about a dozen of them per node
    assert peak < 3 * p * n * 8


def test_fortran_ordered_features_fit_the_same_tree():
    x, y = sonar_training_rows()
    rng = np.random.default_rng(13)
    for subset in (None, [4, 9, 31, 59]):
        w = rng.random(y.size)
        w /= w.sum()
        a = fit_tree(TreeLayout(x, y), weights=w, feature_subset=subset)
        b = fit_tree(TreeLayout(np.asfortranarray(x), y), weights=w, feature_subset=subset)
        assert tree_bytes(a) == tree_bytes(b)


def test_fit_takes_its_training_set_as_a_layout():
    x = np.zeros((3, 2))
    y = np.array([-1.0, 1.0, 1.0])
    # neither the features and labels nor the columns' argsort stand in for the layout
    for args in ((x, y), (np.argsort(x.T, axis=1),)):
        with pytest.raises(ValueError, match="TreeLayout"):
            fit_tree(*args)


# AdaBoost T=100, random forest and bagging (T=100, seed 0) on the training
# rows (split seed 0) of the three benchmark-shaped sets: sha256 over every
# tree's five node arrays, then the raw alphas, as the per-node fit built them
BENCH_DIGESTS = {
    ("pima_like", "adaboost"): "073ec32d83568220720d7d8467cddc95200af6b18ed406ab16c564d674a6b3fc",
    ("pima_like", "random_forest"): "2c2d7506f8832d66156ab06dc92f074eb1625462201dbc4c38571177f3255271",
    ("pima_like", "bagging"): "ce4d50203d2a273cba02d2ce3b44a9cfc29a3f9507639131f6e41f2085231d36",
    ("sonar_like", "adaboost"): "1227db2693e99e427d0ecd634b248ea529a2496efc2d141ca1a0bde63b6e74c6",
    ("sonar_like", "random_forest"): "1e613aaaf10e18cf2b395832c46f6c0f5e5dd378df84ed59733c76fc026757af",
    ("sonar_like", "bagging"): "3992e905240d84f95bca4dc527276901aeced70a6d1d926ba46ad4e7202488a6",
    ("ionosphere_like", "adaboost"): "38e6bd44da1dfd6b0a308f53edeea297beca7d63e8cb01096ef663c10ede7153",
    ("ionosphere_like", "random_forest"): "2187a17e6a40beecf1295f0d413e979cc70b14e6344da73f3abdf43c6e11768c",
    ("ionosphere_like", "bagging"): "3508aae8375759e3aade585f4341c28e99e1dc625b8a5a15372da6ff2814b93f",
}


@pytest.mark.parametrize("make", [pima_like, sonar_like, ionosphere_like])
def test_bench_sized_fits_keep_their_trees(make):
    train, _ = stratified_split(make(), 0.7, seed=0)
    fits = {"adaboost": lambda: adaboost(train, 100),
            "random_forest": lambda: random_forest(train, 100, seed=0),
            "bagging": lambda: bagging(train, 100, seed=0)}
    for name, fit in fits.items():
        digest = hashlib.sha256()
        model = fit()
        for tree in model.trees:
            for part in tree_bytes(tree):
                digest.update(part)
        digest.update(model.raw_alphas.tobytes())
        assert digest.hexdigest() == BENCH_DIGESTS[make.__name__, name], name
        # the training votes the fit hands out are the matrix a fresh prediction builds
        want = prediction_matrix(model, train)
        assert model.train_matrix.entries.shape == want.entries.shape, name
        assert model.train_matrix.entries.tobytes() == want.entries.tobytes(), name
        assert model.train_matrix.labels.tobytes() == want.labels.tobytes(), name


def test_stump_never_worse_than_majority():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(4, 30))
        x = rng.standard_normal((n, 2))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        w = rng.random(n)
        w /= w.sum()
        tree = fit_tree(TreeLayout(x, y), weights=w, params=stump_params())
        stump_err = float(w[tree.predict(x) != y].sum())
        majority = 1.0 if float(np.dot(w, y)) >= 0 else -1.0
        base_err = float(w[y != majority].sum())
        assert stump_err <= base_err + 1e-12


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 4))
    y = np.where(x[:, 1] + 0.3 * x[:, 2] > 0, 1.0, -1.0)
    tree = fit_tree(TreeLayout(x, y))
    clone = Tree.from_dict(json.loads(json.dumps(tree.to_dict())))
    assert clone.to_dict() == tree.to_dict()
    assert np.array_equal(clone.predict(x), tree.predict(x))


def test_fit_deterministic():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 3))
    y = np.where(rng.random(50) < 0.5, -1.0, 1.0)
    w = rng.random(50)
    w /= w.sum()
    a = fit_tree(TreeLayout(x, y), weights=w)
    b = fit_tree(TreeLayout(x, y), weights=w)
    assert a.to_dict() == b.to_dict()


def test_weight_scale_invariance():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((40, 3))
    y = np.where(rng.random(40) < 0.5, -1.0, 1.0)
    w = rng.random(40)
    w /= w.sum()
    doubled_then_renormalized = (2.0 * w) / (2.0 * w).sum()
    a = fit_tree(TreeLayout(x, y), weights=w)
    b = fit_tree(TreeLayout(x, y), weights=doubled_then_renormalized)
    assert a.to_dict() == b.to_dict()


def test_predictions_are_signs():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 2))
    y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    tree = fit_tree(TreeLayout(x, y))
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
    assert full.bits.flags.c_contiguous and not full.bits.flags.writeable
    # a prefix ensemble's matrix is a view of the leading rows' bits, not a copy
    prefix = PredictionMatrix(full.entries[:5], data.labels)
    leading = full.leading(5)
    assert np.shares_memory(leading.bits, full.bits)
    assert np.array_equal(leading.bits, prefix.bits)
    assert np.array_equal(leading.entries, prefix.entries)
    assert leading.labels is full.labels and not leading.bits.flags.writeable
    for bad in (0, model.n_learners + 1):
        with pytest.raises(ValueError, match="count"):
            full.leading(bad)
