"""Depth-limited CART binary classifier on weighted samples.

Splits maximize the weighted Gini impurity decrease over axis-aligned
thresholds placed at midpoints between consecutive distinct values.
Growth is best-first: the pending leaf with the largest decrease splits
next, up to max_leaves.  An impure leaf splits even at zero decrease
(a zero-gain cut can enable a useful one below it, as in xor), so the
only stopping conditions are purity, the depth cap, the leaf cap, and
running out of candidate thresholds.  All tie-breaks are deterministic:
lowest feature index, then lowest threshold, then insertion order.

The split search scores every feature of a node at once.  Each column is
sorted once per training set (a stable argsort, see column_order); a node
keeps its own rows of those orders, takes cumulative class weights along
all of them in one pass and picks the best cut with one feature-major
argmax, so nothing is sorted inside a node.  Every (F, m) array of a node
is a view into one SplitScratch that fit_tree allocates once per fit.  On
sonar-sized data such an array is just under glibc's mmap threshold, so a
temporary per node would be heap memory that each free hands back to the
OS and the next node faults in again.

Prediction is one forward pass over the node arrays.  A parent comes
before its children, so the root starts with every row and each internal
node hands its children boolean masks of the rows that reach them; the
masks of the +1 leaves are ORed together and turned into +-1 once.  Every
node test compares a whole column, leaves - 1 contiguous compares per
tree when the rows are in Fortran order, which suits the small trees
fitted here better than gathering each node's row subset.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 2
    max_leaves: int = 4
    min_leaf_weight: float = 1e-12

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 2 <= self.max_leaves <= 2 ** self.max_depth:
            raise ValueError("max_leaves must lie in [2, 2**max_depth]")
        if self.min_leaf_weight <= 0:
            raise ValueError("min_leaf_weight must be positive")


def _leaf_value(labels, weights) -> float:
    # sign of the weighted label sum, with sign(0) = +1
    return 1.0 if float(np.dot(weights, labels)) >= 0.0 else -1.0


def _weighted_gini(w_pos: float, w_neg: float) -> float:
    total = w_pos + w_neg
    if total <= 0.0:
        return 0.0
    return total - (w_pos * w_pos + w_neg * w_neg) / total


def column_order(x) -> np.ndarray:
    """Stable argsort of each column of the (n, p) matrix x, as a (p, n) array."""
    return np.argsort(np.asarray(x, dtype=float).T, axis=1, kind="stable")


class SplitScratch:
    """Work arrays for best_split on up to n_features columns of n_rows rows.

    A node's (F, m) arrays are the leading F*m elements of flat buffers,
    reshaped, so they are contiguous whatever F and m are.  fit_tree makes
    one scratch per fit and every node of the tree reuses it, so the split
    search allocates nothing of shape (F, m) and the allocator does not hand
    those pages back to the OS between nodes.
    """
    __slots__ = ("size", "inside", "mask", "ok", "rows", "flat", "floats")

    def __init__(self, n_features: int, n_rows: int):
        self.size = n_features * n_rows
        self.inside = np.empty(n_rows, dtype=bool)
        self.mask = np.empty(self.size, dtype=bool)
        self.ok = np.empty(self.size, dtype=bool)
        self.rows = np.empty(self.size, dtype=np.intp)
        self.flat = np.empty(self.size, dtype=np.intp)
        self.floats = np.empty((7, self.size))


def best_split(x, y, w, idx, order, features, min_leaf_weight: float,
               scratch: SplitScratch | None = None):
    """Best (decrease, feature, threshold) for the rows in idx, or None.

    order[k] is the stable argsort of column features[k] over all rows and
    idx is ascending, so keeping the node's rows of each order lists them
    by (value, row), as a stable sort of the node's own values would.  All
    features are scored in one (F, m) block; a flat argmax over it is
    feature-major, so ties go to the earlier feature, then the lower
    threshold.  Position j cuts between sorted rows j and j + 1; the last
    position cuts nothing and is masked out.

    Every (F, m) array is a view into scratch (a SplitScratch over at
    least F features and all rows of x); without one, the call makes its
    own.  order must hold valid row indices, as column_order gives.

    decrease = parent weighted Gini minus the two children's, unnormalized.
    Returns None when the node is already pure (by weight) or no midpoint
    yields two children above min_leaf_weight.
    """
    sub_w = w[idx]
    total = float(sub_w.sum())
    pos = float(sub_w[y[idx] > 0].sum())
    if min(pos, total - pos) <= 0.0:
        return None  # weighted-pure node: nothing to separate
    parent = _weighted_gini(pos, total - pos)
    x = np.ascontiguousarray(x, dtype=float)
    n, p = x.shape
    f, m = len(features), idx.size
    if scratch is None:
        scratch = SplitScratch(f, n)
    elif f * n > scratch.size or scratch.inside.size != n:
        raise ValueError(f"scratch is too small for {f} features of {n} rows")
    size = f * m

    def block(buf):
        return buf[:size].reshape(f, m)

    inside = scratch.inside
    inside.fill(False)
    inside[idx] = True
    mask = scratch.mask[:f * n].reshape(f, n)
    # mode="clip" skips the bounds pass, which would buffer out= in a copy
    np.take(inside, order, out=mask, mode="clip")
    rows = block(scratch.rows)
    np.compress(mask.ravel(), np.ravel(order), out=rows.ravel())
    flat = block(scratch.flat)
    np.multiply(rows, p, out=flat)
    flat += np.asarray(features, dtype=np.intp)[:, None]
    sv, wl, pl, nl, wr, pr, nr = (block(buf) for buf in scratch.floats)
    np.take(x.ravel(), flat, out=sv, mode="clip")
    np.take(w, rows, out=nl, mode="clip")
    np.cumsum(nl, axis=1, out=wl)
    np.take(np.where(y > 0, w, 0.0), rows, out=nl, mode="clip")
    np.cumsum(nl, axis=1, out=pl)
    np.subtract(wl, pl, out=nl)
    np.subtract(total, wl, out=wr)
    np.subtract(pos, pl, out=pr)
    np.subtract(wr, pr, out=nr)
    ok, cut = block(scratch.ok), block(scratch.mask)
    np.less(sv[:, :-1], sv[:, 1:], out=ok[:, :-1])
    ok[:, -1] = False
    ok &= np.greater_equal(wl, min_leaf_weight, out=cut)
    ok &= np.greater_equal(wr, min_leaf_weight, out=cut)
    # child = (wl - (pl*pl + nl*nl) / wl) + (wr - (pr*pr + nr*nr) / wr)
    with np.errstate(divide="ignore", invalid="ignore"):
        pl *= pl
        nl *= nl
        pl += nl
        pl /= wl
        np.subtract(wl, pl, out=pl)
        pr *= pr
        nr *= nr
        pr += nr
        pr /= wr
        np.subtract(wr, pr, out=pr)
        pl += pr
    dec = np.subtract(parent, pl, out=pl)
    np.copyto(dec, -np.inf, where=np.logical_not(ok, out=cut))
    k, j = divmod(int(np.argmax(dec)), m)
    if dec[k, j] == -np.inf:
        return None
    thr = float((sv[k, j] + sv[k, j + 1]) / 2.0)
    return (float(dec[k, j]), int(features[k]), thr)


_ARRAYS = ("feature", "threshold", "left", "right", "value")
_SIGN = np.array([-1.0, 1.0])  # indexed by a bool mask viewed as uint8


# eq=False keeps identity equality: == on arrays has no single truth value
@dataclass(frozen=True, eq=False)
class Tree:
    """A fitted tree as five parallel node arrays, read-only; node 0 is the root.

    Node i is a leaf when feature[i] is -1; it votes value[i] (+-1) and its
    left[i] and right[i] are -1.  Otherwise rows with x[feature[i]] <=
    threshold[i] go to node left[i] and the rest to right[i], both of which
    come after node i.
    """
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int

    def __post_init__(self):
        for name, dtype in zip(_ARRAYS, (np.intp, float, np.intp, np.intp, float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def predict(self, features) -> np.ndarray:
        """The +-1 vote on each row of the (n, n_features) matrix.

        reach[i] masks the rows that reach node i; it is set by node i's
        parent, which comes first.  Each internal node tests its whole
        column, so no row subset is gathered.  A row equal to the
        threshold goes left, and NaN goes right.
        """
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected shape (n, {self.n_features})")
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right, value = self.left.tolist(), self.right.tolist(), self.value.tolist()
        reach = [None] * len(feature)
        reach[0] = np.ones(x.shape[0], dtype=bool)
        plus = np.zeros(x.shape[0], dtype=bool)
        for node in range(len(feature)):
            rows = reach[node]
            if feature[node] < 0:
                if value[node] > 0:
                    plus |= rows
                continue
            go_left = x[:, feature[node]] <= threshold[node]
            go_left &= rows
            reach[left[node]] = go_left
            reach[right[node]] = rows ^ go_left
        return _SIGN.take(plus.view(np.uint8))

    def to_dict(self) -> dict:
        return {"n_features": self.n_features,
                **{name: getattr(self, name).tolist() for name in _ARRAYS}}

    @classmethod
    def from_dict(cls, blob: dict) -> "Tree":
        """Read a tree written by to_dict, raising ValueError unless it is one.

        The checks run in plain Python: the lists are short, and a numpy
        call per check would cost more than the parse.
        """
        n_features = blob["n_features"]
        feature, threshold, left, right, value = (blob[name] for name in _ARRAYS)
        size = len(feature)
        if size == 0 or any(len(arr) != size for arr in (threshold, left, right, value)):
            raise ValueError("tree arrays must be non-empty and of equal length")
        if not isinstance(n_features, int) or n_features < 1:
            raise ValueError("n_features must be a positive integer")
        children = []
        for i in range(size):
            if value[i] not in (-1, 1):
                raise ValueError(f"node {i}: value must be -1 or +1")
            if feature[i] == -1:
                if left[i] != -1 or right[i] != -1:
                    raise ValueError(f"node {i}: a leaf has no children")
                continue
            if not isinstance(feature[i], int) or not 0 <= feature[i] < n_features:
                raise ValueError(f"node {i}: feature must lie in [0, {n_features})")
            if not math.isfinite(threshold[i]):
                raise ValueError(f"node {i}: threshold must be finite")
            if not (i < left[i] < size and i < right[i] < size):
                raise ValueError(f"node {i}: children must come after their parent")
            children += (left[i], right[i])
        if sorted(children) != list(range(1, size)):
            raise ValueError("every node but the root must be the child of one node")
        return cls(feature, threshold, left, right, value, n_features)


def fit_tree(features, labels, weights=None, params: TreeParams | None = None,
             feature_subset=None, order=None) -> Tree:
    """Fit one tree on weighted rows.

    order is column_order(features); a caller fitting many trees on one
    training set computes it once and passes it to each fit.  The split
    search of every node runs in one SplitScratch made here.
    """
    x = np.ascontiguousarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, p) with matching labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    n, p = x.shape
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,) or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be nonnegative and finite, one per row")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1 (within 1e-9)")
    params = params or TreeParams()
    if feature_subset is None:
        active = np.arange(p)
    else:
        active = np.asarray(feature_subset)
        if not np.issubdtype(active.dtype, np.integer):  # bool is not an integer dtype
            raise ValueError("feature_subset must be integer column indices")
        active = np.unique(active)
        if active.size == 0 or active[0] < 0 or active[-1] >= p:
            raise ValueError("feature_subset must name valid feature columns")
    if order is None:
        order = column_order(x)
    elif np.shape(order) != (p, n):
        raise ValueError(f"order must have shape ({p}, {n})")
    order = np.ascontiguousarray(order) if feature_subset is None else order[active]
    scratch = SplitScratch(active.size, n)

    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [_leaf_value(y, w)]
    counter = itertools.count()
    heap = []

    def enqueue(node, idx, depth):
        if depth >= params.max_depth:
            return
        found = best_split(x, y, w, idx, order, active, params.min_leaf_weight, scratch)
        if found is not None:
            dec, feat, thr = found
            heapq.heappush(heap, (-dec, feat, thr, next(counter), node, idx, depth))

    enqueue(0, np.arange(n), 0)
    leaves = 1
    while heap and leaves < params.max_leaves:
        _, feat, thr, _, node, idx, depth = heapq.heappop(heap)
        go_left = x[idx, feat] <= thr
        feature[node], threshold[node] = feat, thr
        left[node], right[node] = len(value), len(value) + 1
        leaves += 1
        for child_idx in (idx[go_left], idx[~go_left]):
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(_leaf_value(y[child_idx], w[child_idx]))
            enqueue(len(value) - 1, child_idx, depth + 1)
    return Tree(feature, threshold, left, right, value, p)
