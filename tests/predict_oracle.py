"""Row-subset reference for a tree's prediction.

This is the prediction the tree used before it tested whole columns: a
stack of (node, rows) pairs, where each internal node splits its row
indices in two by fancy indexing.  The body is kept as it was, so its
first argument is still called self; pass the Tree there.  The tree must
give exactly the same vector.
"""
import numpy as np


def predict(self, features) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != self.n_features:
        raise ValueError(f"expected shape (n, {self.n_features})")
    out = np.empty(x.shape[0])
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        feat = self.feature[node]
        if feat < 0:
            out[idx] = self.value[node]
            continue
        go_left = x[idx, feat] <= self.threshold[node]
        stack.append((self.left[node], idx[go_left]))
        stack.append((self.right[node], idx[~go_left]))
    return out
