"""Per-feature reference for the tree learner's split search.

This is the split search the learner used before it searched all features
at once: a Python loop over the features that argsorts the node's values
of each one.  The learner must return exactly the same tuple, so the
arithmetic here (pairwise total/pos sums, sequential cumsums, the Gini
formulas) is the arithmetic the learner keeps.
"""
import numpy as np


def _weighted_gini(w_pos: float, w_neg: float) -> float:
    total = w_pos + w_neg
    if total <= 0.0:
        return 0.0
    return total - (w_pos * w_pos + w_neg * w_neg) / total


def best_split(x, y, w, idx, features, min_leaf_weight: float):
    """Best (decrease, feature, threshold) for the rows in idx, or None."""
    sub_w = w[idx]
    total = float(sub_w.sum())
    pos = float(sub_w[y[idx] > 0].sum())
    if min(pos, total - pos) <= 0.0:
        return None  # weighted-pure node: nothing to separate
    parent = _weighted_gini(pos, total - pos)
    best = None
    for f in features:
        vals = x[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sw = sub_w[order]
        sp = np.where(y[idx][order] > 0, sw, 0.0)
        cut = np.nonzero(sv[:-1] < sv[1:])[0]
        if cut.size == 0:
            continue
        wl = np.cumsum(sw)[cut]
        pl = np.cumsum(sp)[cut]
        nl = wl - pl
        wr = total - wl
        pr = pos - pl
        nr = wr - pr
        ok = (wl >= min_leaf_weight) & (wr >= min_leaf_weight)
        if not np.any(ok):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            child = (wl - (pl * pl + nl * nl) / wl) + (wr - (pr * pr + nr * nr) / wr)
        dec = np.where(ok, parent - child, -np.inf)
        j = int(np.argmax(dec))  # argmax keeps the first (lowest threshold) on ties
        if best is None or dec[j] > best[0]:
            thr = float((sv[cut[j]] + sv[cut[j] + 1]) / 2.0)
            best = (float(dec[j]), int(f), thr)
    return best
