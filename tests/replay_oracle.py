"""Replay of AdaBoost's reweighting history from a trained model.

The package keeps only the running distribution inside `adaboost`.  This
function rebuilds every round's distribution from the model's trees and
raw round coefficients, so the tests can check that each round scores
exactly half error on the next distribution.  It states the update rule
D <- D exp(-alpha y h) / Z itself, with y h rebuilt from a fresh
prediction, so the replay does not reuse the code it checks.
"""
import numpy as np

from margin_forge.dataset_io import Dataset
from margin_forge.ensemble import EnsembleModel


def replay_distributions(model: EnsembleModel, train: Dataset) -> np.ndarray:
    """Reconstruct the (T_effective+1, n) reweighting history from a
    trained boosting model; row 0 is the uniform start."""
    if model.method != "adaboost":
        raise ValueError("only boosting models carry a reweighting history")
    x, y = train.features, train.labels
    n = train.n_rows
    rows = [np.full(n, 1.0 / n)]
    for tree, alpha in zip(model.trees, model.raw_alphas):
        # y_i h_t(x_i) is +1 on a hit and -1 on a miss
        signed = np.where(tree.predict(x) == y, 1.0, -1.0)
        updated = rows[-1] * np.exp(-float(alpha) * signed)
        rows.append(updated / updated.sum())
    return np.vstack(rows)
