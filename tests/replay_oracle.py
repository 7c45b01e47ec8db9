"""Replay of AdaBoost's reweighting history from a trained model.

The package keeps only the running distribution inside `adaboost`.  This
function rebuilds every round's distribution from the model's trees and
raw round coefficients with the package's own update rule, so the tests
can check that each round scores exactly half error on the next
distribution.  It is kept as it was in the package.
"""
import numpy as np

from margin_forge.dataset_io import Dataset
from margin_forge.ensemble import EnsembleModel, _reweight


def replay_distributions(model: EnsembleModel, train: Dataset) -> np.ndarray:
    """Reconstruct the (T_effective+1, n) reweighting history from a
    trained boosting model; row 0 is the uniform start."""
    if model.method != "adaboost":
        raise ValueError("only boosting models carry a reweighting history")
    x, y = train.features, train.labels
    n = train.n_rows
    rows = [np.full(n, 1.0 / n)]
    for tree, alpha in zip(model.trees, model.raw_alphas):
        wrong = tree.predict(x) != y
        rows.append(_reweight(rows[-1], float(alpha), wrong))
    return np.vstack(rows)
