"""Depth-limited CART binary classifier on weighted samples.

Splits maximize the weighted Gini impurity decrease over axis-aligned
thresholds placed at midpoints between consecutive distinct values.
Growth is best-first: the pending leaf with the largest decrease splits
next, up to max_leaves.  An impure leaf splits even at zero decrease
(a zero-gain cut can enable a useful one below it, as in xor), so the
only stopping conditions are purity, the depth cap, the leaf cap, and
running out of candidate thresholds.  All tie-breaks are deterministic:
lowest feature index, then lowest threshold, then insertion order.

fit_tree takes its training set as a TreeLayout, which AdaBoost's rounds
and a forest's trees share: the features, the labels, each column's stable
argsort, its values in that order and a mask of where consecutive sorted
values differ.  Per tree, the weights w and w * (y > 0) are read
through the order once.  The root takes cumulative class weights along
every sorted column of those arrays and picks the best cut with one
feature-major argmax.  When a node splits, both children are searched
together: the two children's positions in the sorted columns are found with
one gather of a per-row node number through the order, their weights and
values are gathered from the tree's sorted arrays by position, and each
child's (F, m) block follows the other's in one buffer.  Nothing is sorted
inside a node and nothing of shape (F, n) is allocated per node or per
tree: on sonar-sized data such an array sits just under glibc's mmap
threshold, so a temporary would be memory that each free hands back to the
OS and the next search faults in again.

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
        # no tree holds 2**64 leaves, and the power of a huge depth would not finish
        if not 2 <= self.max_leaves <= 2 ** min(self.max_depth, 64):
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


# a child search marks the rows of its node k with k + 1, and all others with 0
_NODE_NUMBERS = np.arange(1, 3, dtype=np.uint8).reshape(2, 1, 1)


class TreeLayout:
    """One training set presorted for split search, with the work buffers of
    every tree fitted on it.

    order[j] is the stable argsort of column j, values[j] that column in
    this order and cuts[j, i] whether a threshold fits between sorted
    positions i and i + 1 (their values differ; False in the last column).
    A tree on a feature subset takes those rows of each.  The constructor
    checks the features and the labels once.

    start_tree reads one tree's weights w and w * (y > 0) through the order
    once, as the real and imaginary parts of one complex array: a complex
    cumsum adds each part exactly as a float cumsum of it would, in one pass
    over both.  Every search then gathers its nodes' sorted weights from
    that array by position.  The arrays of a search are the leading elements
    of buffers allocated here, once per training set.
    """

    def __init__(self, features, labels):
        x = np.ascontiguousarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("features must be (n, p) with matching labels")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        n, p = x.shape
        self.features, self.labels, self.positive = x, y, y > 0
        self.order = np.argsort(x.T, axis=1, kind="stable")
        self.values = np.take_along_axis(x.T, self.order, axis=1)
        self.cuts = np.zeros((p, n), dtype=bool)
        np.less(self.values[:, :-1], self.values[:, 1:], out=self.cuts[:, :-1])
        self.every = np.arange(p)
        self.row_weights = np.empty(n, dtype=complex)   # w + 1j * w * (y > 0) by row
        self.sorted_weights = np.empty(p * n, dtype=complex)   # along each column's order
        self.node = np.empty(n, dtype=np.uint8)   # which node of a search holds each row
        self.node_sorted = np.empty(p * n, dtype=np.uint8)
        self.mask = np.empty(2 * p * n, dtype=bool)
        # per search, every node's block one after another: the complex prefix
        # sums, then wl and pl, then sv, nl, wr, pr and nr
        self.prefix = np.empty(p * n, dtype=complex)
        self.sums = np.empty(2 * p * n)
        self.work = np.empty((5, p * n))
        self.ok, self.cut = np.empty(p * n, dtype=bool), np.empty(p * n, dtype=bool)
        self.tree = None

    def start_tree(self, w, features=None):
        """Sort the weights w of one tree along the order of features (all
        columns when None), in the order given: ties go to the earlier one."""
        if features is None:
            features, order, values, cuts = self.every, self.order, self.values, self.cuts
        else:
            features = np.asarray(features, dtype=np.intp)
            order, values, cuts = self.order[features], self.values[features], self.cuts[features]
        rows = self.row_weights
        np.copyto(rows.real, w)
        np.multiply(w, self.positive, out=rows.imag)  # np.where(y > 0, w, 0.0) for w >= 0
        # mode="clip" skips the bounds pass, which would buffer out= in a copy
        np.take(rows, order, mode="clip", out=self.sorted_weights[:order.size].reshape(order.shape))
        self.tree = (w, features, order, values.ravel(), cuts.ravel())

    def _sums(self, idx):
        # pairwise sums over the node's rows in row order
        sub_w = self.tree[0][idx]
        total = float(sub_w.sum())
        return total, float(sub_w[self.positive[idx]].sum())

    def root_split(self, min_leaf_weight: float):
        """Best (decrease, feature, threshold) over all rows, or None."""
        total, pos = self._sums(slice(None))
        if min(pos, total - pos) <= 0.0:
            return None  # weighted-pure node: nothing to separate
        _, _, order, values, cuts = self.tree
        f, n = order.shape
        np.cumsum(self.sorted_weights[:f * n].reshape(f, n), axis=1,
                  out=self.prefix[:f * n].reshape(f, n))
        np.copyto(self.ok[:f * n], cuts)
        return self._best(values, [(0, n, total, pos)], min_leaf_weight)[0]

    def child_splits(self, nodes, min_leaf_weight: float):
        """Best split of each node (an ascending array of row indices; at most
        two), searched together: each node's positions in the tree's sorted
        arrays make its (F, m) block, and the blocks follow one another."""
        found = [None] * len(nodes)
        live = []
        for i, idx in enumerate(nodes):
            total, pos = self._sums(idx)
            if min(pos, total - pos) > 0.0:  # else weighted-pure: nothing to separate
                live.append((i, idx, total, pos))
        if not live:
            return found
        _, _, order, values, _ = self.tree
        f, n = order.shape
        c = len(live)
        self.node.fill(0)
        for k, (_, idx, _, _) in enumerate(live):
            self.node[idx] = k + 1
        node_sorted = self.node_sorted[:f * n].reshape(f, n)
        np.take(self.node, order, out=node_sorted, mode="clip")
        mask = self.mask[:c * f * n].reshape(c, f, n)
        np.equal(node_sorted, _NODE_NUMBERS[:c], out=mask)
        # node k's positions come offset by k * f * n; mode="wrap" takes them modulo f * n
        at = np.flatnonzero(mask)
        size = at.size
        prefix = self.prefix[:size]
        np.take(self.sorted_weights[:f * n], at, out=prefix, mode="wrap")
        sv = self.work[0, :size]
        np.take(values, at, out=sv, mode="wrap")
        blocks, start = [], 0
        for _, idx, total, pos in live:
            stop = start + f * idx.size
            block = prefix[start:stop].reshape(f, idx.size)
            np.cumsum(block, axis=1, out=block)
            blocks.append((start, idx.size, total, pos))
            start = stop
        ok = self.ok[:size]
        np.less(sv[:-1], sv[1:], out=ok[:-1])
        for start, m, _, _ in blocks:
            ok[start + m - 1:start + f * m:m] = False  # a row's last position cuts nothing
        for (i, *_), best in zip(live, self._best(sv, blocks, min_leaf_weight)):
            found[i] = best
        return found

    def _best(self, sv, blocks, min_leaf_weight):
        """Score the nodes laid out in the leading elements of the work
        buffers: block (start, m, total, pos) is a node's (F, m) sorted values
        sv and prefix weights wl + 1j * pl (left-side weight and its positive
        part), and ok holds its cuts between distinct values.  A flat argmax
        over a block is feature-major, so ties go to the earlier feature, then
        the lower threshold.

        decrease = parent weighted Gini minus the two children's, unnormalized;
        a node with no cut leaving min_leaf_weight on both sides gives None.
        """
        features = self.tree[1]
        f = features.size
        size = f * sum(m for _, m, _, _ in blocks)
        wl, pl = self.sums[:2 * size].reshape(2, size)
        prefix = self.prefix[:size]
        np.copyto(wl, prefix.real)   # contiguous for the passes below
        np.copyto(pl, prefix.imag)
        nl, wr, pr, nr = (buf[:size] for buf in self.work[1:])
        ok, cut = self.ok[:size], self.cut[:size]
        np.subtract(wl, pl, out=nl)
        for start, m, total, pos in blocks:
            stop = start + f * m
            np.subtract(total, wl[start:stop], out=wr[start:stop])
            np.subtract(pos, pl[start:stop], out=pr[start:stop])
        np.subtract(wr, pr, out=nr)
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
        for start, m, total, pos in blocks:
            stop = start + f * m
            np.subtract(_weighted_gini(pos, total - pos), pl[start:stop], out=pl[start:stop])
        np.putmask(pl, np.logical_not(ok, out=cut), -np.inf)
        found = []
        for start, m, _, _ in blocks:
            best = start + int(np.argmax(pl[start:start + f * m]))
            if pl[best] == -np.inf:
                found.append(None)
                continue
            thr = float((sv[best] + sv[best + 1]) / 2.0)
            found.append((float(pl[best]), int(features[(best - start) // m]), thr))
        return found


def json_float(value, name: str) -> float:
    """The float of a JSON number read from a snapshot, or ValueError naming it.

    Checked by exact type: a JSON true or false is a bool, never a number
    here.  A JSON integer past the float range is refused, not rounded.
    """
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} lies past the float range") from None


_NODE_FIELDS = ("feature", "threshold", "left", "right", "value")
_SIGN = np.array([-1.0, 1.0])  # indexed by a bool mask viewed as uint8


@dataclass(frozen=True)
class Tree:
    """A fitted tree as five parallel tuples of node fields; node 0 is the root.

    Node i is a leaf when feature[i] is -1; it votes value[i] (+-1) and its
    left[i] and right[i] are -1.  Otherwise rows with x[feature[i]] <=
    threshold[i] go to node left[i] and the rest to right[i], both of which
    come after node i.  The tuples hold Python ints, and floats for threshold and value.
    """
    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]
    n_features: int

    def __post_init__(self):
        for name, kind in zip(_NODE_FIELDS, (int, float, int, int, float)):
            object.__setattr__(self, name, tuple(map(kind, getattr(self, name))))

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
        feature, threshold, left, right, value = (getattr(self, f) for f in _NODE_FIELDS)
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
                **{name: list(getattr(self, name)) for name in _NODE_FIELDS}}

    @classmethod
    def from_dict(cls, blob: dict) -> "Tree":
        """Read a tree written by to_dict, raising ValueError unless it is one.

        The checks run in plain Python: the lists are short, and a numpy
        call per check would cost more than the parse.  A JSON true or false
        is a bool, which Python counts as an int equal to 1 or 0, so every
        number is checked by exact type and no field may hold a bool.
        """
        n_features = blob["n_features"]
        arrays = feature, threshold, left, right, value = [blob[name] for name in _NODE_FIELDS]
        if not (feature and all(type(arr) is list and len(arr) == len(feature) for arr in arrays)):
            raise ValueError("tree arrays must be non-empty lists of equal length")
        if type(n_features) is not int or n_features < 1:
            raise ValueError("n_features must be a positive integer")
        size = len(feature)
        children = []
        for i in range(size):
            if type(value[i]) is bool or value[i] not in (-1, 1):
                raise ValueError(f"node {i}: value must be -1 or +1")
            cut = json_float(threshold[i], f"node {i}: threshold")
            if not type(feature[i]) is type(left[i]) is type(right[i]) is int:
                raise ValueError(f"node {i}: feature, left and right must be integers")
            if feature[i] == -1:
                if left[i] != -1 or right[i] != -1:
                    raise ValueError(f"node {i}: a leaf has no children")
                continue
            if not 0 <= feature[i] < n_features:
                raise ValueError(f"node {i}: feature must lie in [0, {n_features})")
            if not math.isfinite(cut):
                raise ValueError(f"node {i}: threshold must be finite")
            if not (i < left[i] < size and i < right[i] < size):
                raise ValueError(f"node {i}: children must come after their parent")
            children += (left[i], right[i])
        if sorted(children) != list(range(1, size)):
            raise ValueError("every node but the root must be the child of one node")
        return cls(feature, threshold, left, right, value, n_features)


def _grow(layout: TreeLayout, w, params: TreeParams, features) -> Tree:
    """Grow one tree best-first on layout's training set with weights w."""
    x, y = layout.features, layout.labels
    layout.start_tree(w, features)
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [_leaf_value(y, w)]
    counter = itertools.count()
    heap = []

    # a pending leaf carries its rows, idx; the unique counter keeps them out of comparisons
    def push(node, idx, found, depth):
        if found is not None:
            dec, feat, thr = found
            heapq.heappush(heap, (-dec, feat, thr, next(counter), node, idx, depth))

    push(0, np.arange(x.shape[0]), layout.root_split(params.min_leaf_weight), 0)
    leaves = 1
    while heap and leaves < params.max_leaves:
        _, feat, thr, _, node, idx, depth = heapq.heappop(heap)
        go_left = x[idx, feat] <= thr
        feature[node], threshold[node] = feat, thr
        left[node], right[node] = len(value), len(value) + 1
        leaves += 1
        children = (idx[go_left], idx[~go_left])
        for child_idx in children:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(_leaf_value(y[child_idx], w[child_idx]))
        # a full tree splits no more, so its children need no search
        if depth + 1 < params.max_depth and leaves < params.max_leaves:
            searched = layout.child_splits(children, params.min_leaf_weight)
            for child, child_idx, found in zip((left[node], right[node]), children, searched):
                push(child, child_idx, found, depth + 1)
    return Tree(feature, threshold, left, right, value, x.shape[1])


def fit_tree(layout: TreeLayout, weights=None, params: TreeParams | None = None,
             feature_subset=None) -> Tree:
    """Fit one tree on the weighted rows of layout, the training set as
    TreeLayout(features, labels) holds it.

    A caller fitting many trees on one training set builds the layout once
    and passes it to each fit.
    """
    if not isinstance(layout, TreeLayout):
        raise ValueError("layout must be a TreeLayout")
    n, p = layout.features.shape
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.ascontiguousarray(weights, dtype=float)
        if w.shape != (n,) or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be nonnegative and finite, one per row")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1 (within 1e-9)")
    params = params or TreeParams()
    active = None
    if feature_subset is not None:
        active = np.asarray(feature_subset)
        if not np.issubdtype(active.dtype, np.integer):  # bool is not an integer dtype
            raise ValueError("feature_subset must be integer column indices")
        active = np.unique(active)
        if active.size == 0 or active[0] < 0 or active[-1] >= p:
            raise ValueError("feature_subset must name valid feature columns")
    return _grow(layout, w, params, active)
