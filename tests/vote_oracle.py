"""Tree-loop reference for the combined vote of an ensemble.

The package reads the vote off the prediction matrix (margins and
training_error_from_margins).  These two functions are the second route
it used to carry: a loop that adds up each tree's weighted prediction,
with the same tie rule, sign(0) = +1.  They are kept as they were.
"""
import numpy as np

from margin_forge.dataset_io import Dataset
from margin_forge.ensemble import EnsembleModel


def predict(model: EnsembleModel, features) -> np.ndarray:
    """Combined vote per row: sign of the weighted learner sum, 0 -> +1."""
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    score = np.zeros(x.shape[0])
    for tree, w in zip(model.trees, model.vote_weights):
        score += w * tree.predict(x)
    return np.where(score >= 0.0, 1.0, -1.0)


def test_error(model: EnsembleModel, data: Dataset) -> float:
    return float(np.mean(predict(model, data.features) != data.labels))
