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
from dataclasses import KW_ONLY, dataclass, field, replace

import numpy as np

from .cart import Tree, TreeLayout, TreeParams, fit_tree, json_float
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
    # the signed votes on the training rows, from the fit; None on a loaded model
    train_matrix: PredictionMatrix | None = field(default=None, repr=False, compare=False)
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
        if self.train_matrix is not None and self.train_matrix.n_learners != len(self.trees):
            raise ValueError("train_matrix must hold one row per learner")
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


@dataclass(frozen=True, init=False)
class PredictionMatrix:
    """A learner-major matrix of signed votes and the labels of its rows.

    This class is the one owner of the vote storage.  A signed vote
    y_i h_t(x_i) is -1 or +1, so each takes one bit: bits is a C-ordered,
    read-only uint8 (T, ceil(n / 8)) array, np.packbits of entries > 0
    along each learner's row, where a set bit means learner t is right on
    row i.  The pad bits past column n of each row are zero and no reader
    looks at them.  Float input is checked before it is narrowed, where a
    cast would turn 0.5 or 1 + 1e-9 into a vote; int8 input is checked with
    its min, max and nonzero count, which make no per-cell temporary.

    The readers give what float64 entries give, bit for bit.  Each unpacks
    one column tile of int8 votes at a time (see _column_tiles): vote_counts
    and learner_sums are exact int32 sums, weighted_sum casts one float64
    tile at a time and gram sums exact float32 tile products in float64.
    A tile buffer holds at most T * (2 * _TILE - 1) cells (4.1 MB of
    float64 at T = 500), not a whole cast.  dense() and entries unpack the
    whole matrix, for the solvers that take it whole and for callers
    outside the package's scoring path.
    """
    bits: np.ndarray      # (T, ceil(n / 8)) uint8: bit i of row t is set where learner t is right on row i
    labels: np.ndarray    # (n,) of +-1
    n_rows: int

    def __init__(self, entries, labels):
        """Pack entries, a (T, n) array of signed votes +-1, T >= 1 and n >= 1,
        with one label +-1 per column."""
        h = np.asarray(entries)
        y = np.array(labels, dtype=float)
        if h.ndim != 2 or min(h.shape) < 1 or y.shape != (h.shape[1],):
            raise ValueError("entries must be (T, n), T >= 1 and n >= 1, with one label per row")
        if h.dtype == np.int8:
            # min, max and the nonzero count scan without a per-cell temporary
            votes = h.min() >= -1 and h.max() <= 1 and np.count_nonzero(h) == h.size
        else:
            # checked before narrowing, where 0.5 or 1 + 1e-9 would truncate
            votes = np.all(np.isin(h, (-1.0, 1.0)))
        if not votes or not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("entries and labels must be -1 or +1")
        y.flags.writeable = False
        self._set(np.packbits(h > 0, axis=1), y, h.shape[1])

    def _set(self, bits: np.ndarray, labels: np.ndarray, n_rows: int):
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_rows", n_rows)

    @classmethod
    def _of_bits(cls, bits: np.ndarray, labels: np.ndarray, n_rows: int) -> "PredictionMatrix":
        """Wrap C-ordered bits that _pack_votes wrote or that a checked matrix
        holds, and read-only float labels: nothing is scanned again."""
        matrix = object.__new__(cls)
        matrix._set(bits, labels, n_rows)
        return matrix

    def leading(self, count: int) -> "PredictionMatrix":
        """The matrix of the first count learners, a view of these rows' bits."""
        if not 1 <= count <= self.n_learners:
            raise ValueError(f"count must lie in [1, {self.n_learners}]")
        return PredictionMatrix._of_bits(self.bits[:count], self.labels, self.n_rows)

    @property
    def n_learners(self) -> int:
        return self.bits.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The (T, n) signed votes as a read-only int8 array, unpacked on each
        access; the package's readers do not use it."""
        votes = _unpack_votes(self.bits, self.n_rows)
        votes.flags.writeable = False
        return votes

    def dense(self) -> np.ndarray:
        """The (T, n) signed votes as one float64 array, for the solvers that
        take the whole design."""
        return _unpack_votes(self.bits, self.n_rows).astype(float)

    def vote_counts(self) -> np.ndarray:
        """Each row's vote total as exact int32 (int8 sums widen to int64, slower)."""
        out = np.empty(self.n_rows, dtype=np.int32)
        for a, b, votes in _column_tiles(self.bits, self.n_rows):
            votes.sum(axis=0, dtype=np.int32, out=out[a:b])
        return out

    def learner_sums(self) -> np.ndarray:
        """Each learner's vote total as exact int32."""
        out = np.zeros(self.n_learners, dtype=np.int32)
        for _, _, votes in _column_tiles(self.bits, self.n_rows):
            out += votes.sum(axis=1, dtype=np.int32)
        return out

    def weighted_sum(self, w: np.ndarray) -> np.ndarray:
        """w @ entries.astype(float), one float64 column tile of votes at a time.

        At one BLAS thread it was the full cast's bit for bit on every shape
        tried, with OpenBLAS 0.3.31 and its SkylakeX kernel (the only build
        and CPU checked; tests/test_vote_storage.py pins the shapes).  A last
        tile 1-3 columns wide, which _column_tiles rules out, differed.
        """
        out = np.empty(self.n_rows)
        for a, b, tile in _column_tiles(self.bits, self.n_rows, float):
            np.matmul(w, tile, out=out[a:b])
        return out

    def gram(self) -> np.ndarray:
        """The float64 Gram matrix entries @ entries.T, exact at any width.

        A tile is narrower than 2 * _TILE <= 2**24 columns, so its float32
        product is exact integers in any summation order, and so is their
        float64 sum.
        """
        out = np.zeros((self.n_learners,) * 2)
        for _, _, tile in _column_tiles(self.bits, self.n_rows, np.float32):
            out += tile @ tile.T
        return out


_TILE = 512   # columns per tile of _column_tiles, a multiple of 8


def _unpack_votes(bits: np.ndarray, n: int) -> np.ndarray:
    """The +-1 votes of the first n columns packed in bits, as a new int8 array."""
    votes = np.unpackbits(bits, axis=1, count=n)
    votes += votes
    votes -= 1   # 0 wraps to 255, which is -1 as int8
    return votes.view(np.int8)


def _column_tiles(bits: np.ndarray, n: int, dtype=None):
    """Yield (a, b, tile) for column cuts a:b that cover the n columns packed
    in bits: the tile is those columns' votes, unpacked to int8 when dtype is
    None and else cast to dtype.

    Tiles start at multiples of _TILE, so each starts on a byte of bits,
    and the remainder is folded into the last one, so fewer than 2 * _TILE
    columns are one tile.  np.unpackbits stops at column b, so no pad bit
    is read.  A cast tile is written into one reused buffer, not a (T, n)
    copy, and is valid until the next.
    """
    T = bits.shape[0]
    cuts = [*range(0, max(n // _TILE, 1) * _TILE, _TILE), n]
    buffer = None if dtype is None else np.empty(T * (cuts[-1] - cuts[-2]), dtype=dtype)
    for a, b in zip(cuts, cuts[1:]):
        votes = _unpack_votes(bits[:, a // 8:(b + 7) // 8], b - a)
        if buffer is None:
            yield a, b, votes
            continue
        tile = buffer[:T * (b - a)].reshape(T, b - a)
        np.copyto(tile, votes)
        yield a, b, tile


def _pack_votes(tree: Tree, x: np.ndarray, positive: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the tree's signed votes on the rows of x into the packed row out,
    a bit set where the tree votes the row's label (positive is labels > 0),
    and return that boolean mask of the rows it gets right."""
    right = tree._plus(x)
    np.equal(right, positive, out=right)
    out[:] = np.packbits(right)
    return right


def _check_two_classes(data: Dataset):
    counts = data.class_counts()
    if counts[-1] == 0 or counts[+1] == 0:
        raise DatasetError("training data must contain both classes")


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
    layout = TreeLayout(train.features, train.labels)
    n = train.n_rows
    positive = layout.labels > 0
    dist = np.full(n, 1.0 / n)
    rows: list[np.ndarray] = []
    trees: list[Tree] = []
    alphas: list[float] = []
    break_reason = None
    for _ in range(T):
        tree = fit_tree(layout, weights=dist, params=params)
        # where the signed vote y_i h_t(x_i) is +1; a mistake drives the update
        row = np.empty((n + 7) // 8, dtype=np.uint8)
        right = _pack_votes(tree, layout.features, positive, row)
        eps = float(dist[~right].sum())
        if eps >= 0.5:
            break_reason = f"round error {eps:.6f} is no better than chance"
            break
        alpha = 0.5 * math.log((1.0 - eps) / max(eps, EPS_FLOOR))
        trees.append(tree)
        alphas.append(alpha)
        rows.append(row)
        if eps == 0.0:
            break_reason = "a round fit its training distribution perfectly"
            break
        # D * exp(-alpha y h), with -alpha y h exactly -alpha or +alpha
        dist = dist * np.exp(np.where(right, -alpha, alpha))
        dist /= dist.sum()
    if not trees:
        raise EnsembleError(f"no usable learners: {break_reason}")
    return EnsembleModel("adaboost", tuple(trees), np.array(alphas), params,
                         break_reason=break_reason,
                         train_matrix=PredictionMatrix._of_bits(np.stack(rows), train.labels, n))


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
    layout = TreeLayout(train.features, train.labels)
    trees = []
    for t in range(T):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n) / n
        subset = np.sort(rng.choice(p, size=m_try, replace=False))
        trees.append(fit_tree(layout, weights=weights, params=params, feature_subset=subset))
    model = EnsembleModel("random-forest", tuple(trees), np.ones(T), params, seed=seed)
    return replace(model, train_matrix=prediction_matrix(model, train))


def bagging(train: Dataset, T: int, params: TreeParams | None = None,
            seed: int = 0) -> EnsembleModel:
    """Random forest with every feature available to every tree."""
    model = random_forest(train, T, m_try=train.n_features, params=params, seed=seed)
    return replace(model, method="bagging")


def prediction_matrix(model: EnsembleModel, data: Dataset) -> PredictionMatrix:
    """The (T, n) matrix of every learner's signed vote y_i h_t(x_i) on
    every row of data.

    A Dataset holds its features in Fortran order, so every node test of
    every tree reads a contiguous column, and each tree's signed votes are
    packed into one row of the matrix's bits; no (T, n) array of votes is
    made.
    """
    positive = data.labels > 0
    bits = np.empty((model.n_learners, (data.n_rows + 7) // 8), dtype=np.uint8)
    for t, tree in enumerate(model.trees):
        _pack_votes(tree, data.features, positive, bits[t])
    return PredictionMatrix._of_bits(bits, data.labels, data.n_rows)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


# each tree_params key of a snapshot and the JSON number types it takes
_PARAM_TYPES = {"max_depth": (int,), "max_leaves": (int,), "min_leaf_weight": (int, float)}


def _read_params(params) -> TreeParams:
    # checked by exact type: a JSON true or false is a bool, never an int here
    if type(params) is not dict:
        raise ValueError("tree_params must be a JSON object")
    for key, value in params.items():
        if key not in _PARAM_TYPES:
            raise ValueError(f"tree_params has an unknown key {key!r}")
        if type(value) not in _PARAM_TYPES[key]:
            kind = "an integer" if _PARAM_TYPES[key] == (int,) else "a number"
            raise ValueError(f"tree_params {key} must be {kind}")
    return TreeParams(**params)


def load_model(path) -> EnsembleModel:
    """Read a snapshot written by save_model; a malformed one raises ValueError
    or TypeError."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            blob = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not isinstance(blob, dict):
        raise ValueError("the top level must be a JSON object")
    try:
        params = _read_params(blob["tree_params"])
        if type(blob["trees"]) is not list or not all(type(t) is dict for t in blob["trees"]):
            raise ValueError("trees must be a list of JSON objects")
        trees = tuple(Tree.from_dict(t) for t in blob["trees"])
        seed, reason = blob.get("seed"), blob.get("break_reason")
        if seed is not None and type(seed) is not int:
            raise ValueError("seed must be an integer or null")
        if reason is not None and type(reason) is not str:
            raise ValueError("break_reason must be a string or null")
        if type(blob["raw_alphas"]) is not list:
            raise ValueError("raw_alphas must be a list of numbers")
        alphas = [json_float(a, f"raw_alphas[{i}]") for i, a in enumerate(blob["raw_alphas"])]
        # an older snapshot's vote_weights key is ignored: the weights derive from raw_alphas
        return EnsembleModel(blob["method"], trees, np.array(alphas), params,
                             seed=seed, break_reason=reason)
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from None
