"""Per-node reference for the tree learner's fit.

This is the fit the learner used before it searched on a presorted layout:
best-first growth from a heap, where every node sorts nothing but gathers
its own rows of each column order (a mask through the order, a compress and
a flat gather of the values) and scores all its features in one (F, m)
block.  The learner must build exactly the same five node arrays, so the
arithmetic here (pairwise total/pos sums over the node's rows, sequential
cumsums along each sorted column, the Gini operations in this order) is the
arithmetic the learner keeps.
"""
import heapq
import itertools

import numpy as np

from margin_forge.cart import Tree, TreeParams


def _leaf_value(labels, weights) -> float:
    return 1.0 if float(np.dot(weights, labels)) >= 0.0 else -1.0


def _weighted_gini(w_pos: float, w_neg: float) -> float:
    total = w_pos + w_neg
    if total <= 0.0:
        return 0.0
    return total - (w_pos * w_pos + w_neg * w_neg) / total


def column_order(x) -> np.ndarray:
    """Stable argsort of each column of the (n, p) matrix x, as a (p, n) array."""
    return np.argsort(np.asarray(x, dtype=float).T, axis=1, kind="stable")


def best_split(x, y, w, idx, order, features, min_leaf_weight: float):
    """Best (decrease, feature, threshold) for the rows in idx, or None.

    order[k] is the stable argsort of column features[k] and idx is
    ascending.  A flat argmax over the (F, m) block is feature-major.
    """
    sub_w = w[idx]
    total = float(sub_w.sum())
    pos = float(sub_w[y[idx] > 0].sum())
    if min(pos, total - pos) <= 0.0:
        return None
    parent = _weighted_gini(pos, total - pos)
    x = np.ascontiguousarray(x, dtype=float)
    n, p = x.shape
    m = idx.size
    inside = np.zeros(n, dtype=bool)
    inside[idx] = True
    mask = np.take(inside, order)
    rows = np.compress(mask.ravel(), np.ravel(order)).reshape(len(features), m)
    flat = rows * p + np.asarray(features, dtype=np.intp)[:, None]
    sv = np.take(x.ravel(), flat)
    wl = np.cumsum(np.take(w, rows), axis=1)
    pl = np.cumsum(np.take(np.where(y > 0, w, 0.0), rows), axis=1)
    nl = wl - pl
    wr = total - wl
    pr = pos - pl
    nr = wr - pr
    ok = np.zeros(sv.shape, dtype=bool)
    np.less(sv[:, :-1], sv[:, 1:], out=ok[:, :-1])
    ok &= wl >= min_leaf_weight
    ok &= wr >= min_leaf_weight
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
    np.copyto(dec, -np.inf, where=~ok)
    k, j = divmod(int(np.argmax(dec)), m)
    if dec[k, j] == -np.inf:
        return None
    thr = float((sv[k, j] + sv[k, j + 1]) / 2.0)
    return (float(dec[k, j]), int(features[k]), thr)


def fit_tree(x, y, w, params: TreeParams, feature_subset=None) -> Tree:
    """Fit one tree node by node; the arguments are valid, w sums to 1."""
    x = np.ascontiguousarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n, p = x.shape
    active = np.arange(p) if feature_subset is None else np.unique(feature_subset)
    order = column_order(x)[active]
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [_leaf_value(y, w)]
    counter = itertools.count()
    heap = []

    def enqueue(node, idx, depth):
        if depth >= params.max_depth:
            return
        found = best_split(x, y, w, idx, order, active, params.min_leaf_weight)
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
