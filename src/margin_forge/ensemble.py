"""Voting ensembles of depth-limited trees: boosting, random forest, bagging.

A model stores each learner's unnormalized vote, raw_alphas (AdaBoost's
round coefficients, 1.0 per forest or bagging tree), and derives its vote
weights from them as raw_alphas / sum(raw_alphas): margins are defined
against a convex combination of learners.  sign(0) resolves to +1
everywhere.
"""
from __future__ import annotations

import json
import math
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .cart import Tree, TreeParams, column_order, fit_tree
from .dataset_io import Dataset, DatasetError

# floor keeps the round coefficient finite when a tree fits its
# training distribution perfectly
EPS_FLOOR = 1e-10

METHODS = ("adaboost", "random-forest", "bagging")


class EnsembleError(RuntimeError):
    """Training could not produce a usable model."""


@dataclass(frozen=True)
class EnsembleModel:
    method: str
    trees: tuple[Tree, ...]
    raw_alphas: np.ndarray            # each learner's unnormalized vote
    tree_params: TreeParams
    _: KW_ONLY
    seed: int | None = None
    break_reason: str | None = None
    vote_weights: np.ndarray = field(init=False)   # raw_alphas / their sum

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if len(self.trees) < 1:
            raise ValueError("need at least one learner")
        if len({tree.n_features for tree in self.trees}) != 1:
            raise ValueError("all learners must take the same number of features")
        a = np.array(self.raw_alphas, dtype=float)
        if a.shape != (len(self.trees),):
            raise ValueError("raw_alphas must align with the learner list")
        # NaN fails a >= 0; an infinite alpha or sum fails the upper bound
        if not (np.all(a >= 0) and 0.0 < a.sum() < math.inf):
            raise ValueError("raw_alphas must be finite and nonnegative with a positive sum")
        w = a / a.sum()
        a.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "raw_alphas", a)
        object.__setattr__(self, "vote_weights", w)

    @property
    def n_learners(self) -> int:
        return len(self.trees)


@dataclass(frozen=True)
class PredictionMatrix:
    entries: np.ndarray   # (T, n) of +-1: y_i h_t(x_i), +1 where learner t is right on row i
    labels: np.ndarray    # (n,) of +-1

    def __post_init__(self):
        # C order fixes the summation order of w @ entries; C float input is kept
        h = np.asarray(self.entries, dtype=float, order="C")
        y = np.array(self.labels, dtype=float)
        if h.ndim != 2 or h.shape[0] < 1 or y.shape != (h.shape[1],):
            raise ValueError("entries must be (T, n), T >= 1, with one label per row")
        if not np.all(np.isin(h, (-1.0, 1.0))) or not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("entries and labels must be -1 or +1")
        h.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "entries", h)
        object.__setattr__(self, "labels", y)

    @property
    def n_rows(self) -> int:
        return self.entries.shape[1]

    @property
    def n_learners(self) -> int:
        return self.entries.shape[0]


def _check_two_classes(data: Dataset):
    counts = data.class_counts()
    if counts[-1] == 0 or counts[+1] == 0:
        raise DatasetError("training data must contain both classes")


def _reweight(dist, alpha: float, wrong) -> np.ndarray:
    # y_i h_t(x_i) is +1 on a hit and -1 on a miss
    updated = dist * np.exp(-alpha * np.where(wrong, -1.0, 1.0))
    return updated / updated.sum()


def adaboost(train: Dataset, T: int, params: TreeParams | None = None) -> EnsembleModel:
    """Sequential reweighting: D starts uniform, each round fits a tree on D,
    scores its weighted error, and exponentially upweights the mistakes.

    The loop breaks early on a perfect round (that tree is kept) or a
    round no better than chance (that tree is dropped).
    """
    _check_two_classes(train)
    if T < 1:
        raise ValueError("T must be >= 1")
    params = params or TreeParams()
    x, y = train.features, train.labels
    n = train.n_rows
    dist = np.full(n, 1.0 / n)
    order = column_order(x)
    trees: list[Tree] = []
    alphas: list[float] = []
    break_reason = None
    for _ in range(T):
        tree = fit_tree(x, y, weights=dist, params=params, order=order)
        wrong = tree.predict(x) != y
        eps = float(dist[wrong].sum())
        if eps >= 0.5:
            break_reason = f"round error {eps:.6f} is no better than chance"
            break
        alpha = 0.5 * math.log((1.0 - eps) / max(eps, EPS_FLOOR))
        trees.append(tree)
        alphas.append(alpha)
        if eps == 0.0:
            break_reason = "a round fit its training distribution perfectly"
            break
        dist = _reweight(dist, alpha, wrong)
    if not trees:
        raise EnsembleError(f"no usable learners: {break_reason}")
    return EnsembleModel("adaboost", tuple(trees), np.array(alphas), params,
                         break_reason=break_reason)


def random_forest(train: Dataset, T: int, m_try: int | None = None,
                  params: TreeParams | None = None, seed: int = 0) -> EnsembleModel:
    """Bootstrap-resampled trees on random feature subsets, uniform votes.

    The bootstrap is realized as draw counts divided by n, so a fitted
    tree sees the resample through its sample weights.  Per-tree
    randomness comes from an independent stream keyed by (seed, t).
    """
    _check_two_classes(train)
    if T < 1:
        raise ValueError("T must be >= 1")
    params = params or TreeParams()
    n, p = train.n_rows, train.n_features
    if m_try is None:
        m_try = math.ceil(math.sqrt(p))
    if not 1 <= m_try <= p:
        raise ValueError(f"m_try must lie in [1, {p}]")
    x, y = train.features, train.labels
    order = column_order(x)
    trees = []
    for t in range(T):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n) / n
        subset = np.sort(rng.choice(p, size=m_try, replace=False))
        trees.append(fit_tree(x, y, weights=weights, params=params,
                              feature_subset=subset, order=order))
    return EnsembleModel("random-forest", tuple(trees), np.ones(T), params, seed=seed)


def bagging(train: Dataset, T: int, params: TreeParams | None = None,
            seed: int = 0) -> EnsembleModel:
    """Random forest with every feature available to every tree."""
    model = random_forest(train, T, m_try=train.n_features, params=params, seed=seed)
    return EnsembleModel("bagging", model.trees, model.raw_alphas, model.tree_params,
                         seed=seed)


def prediction_matrix(model: EnsembleModel, data: Dataset) -> PredictionMatrix:
    """The (T, n) matrix of every learner's signed vote y_i h_t(x_i) on
    every row of data.

    The features are put in Fortran order once, so every node test of
    every tree reads a contiguous column, and each tree's signed votes
    fill one contiguous row of the matrix.
    """
    x = np.asfortranarray(data.features)
    entries = np.empty((model.n_learners, data.n_rows))
    for t, tree in enumerate(model.trees):
        np.multiply(tree.predict(x), data.labels, out=entries[t])
    return PredictionMatrix(entries, data.labels)


def save_model(model: EnsembleModel, path) -> None:
    blob = {
        "method": model.method,
        "raw_alphas": model.raw_alphas.tolist(),
        "seed": model.seed,
        "break_reason": model.break_reason,
        "tree_params": {"max_depth": model.tree_params.max_depth,
                        "max_leaves": model.tree_params.max_leaves,
                        "min_leaf_weight": model.tree_params.min_leaf_weight},
        "trees": [tree.to_dict() for tree in model.trees],
    }
    with open(path, "w") as fh:
        json.dump(blob, fh)


def load_model(path) -> EnsembleModel:
    with open(path) as fh:
        blob = json.load(fh)
    params = TreeParams(**blob["tree_params"])
    trees = tuple(Tree.from_dict(t) for t in blob["trees"])
    # an older snapshot's vote_weights key is ignored: the weights derive from raw_alphas
    return EnsembleModel(blob["method"], trees, np.array(blob["raw_alphas"]), params,
                         seed=blob.get("seed"), break_reason=blob.get("break_reason"))
