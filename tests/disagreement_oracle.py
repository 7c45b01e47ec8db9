"""Pairwise expected disagreement of a weighted vote, and the C-bound from it.

The package computes the C-bound (`germain_bound`) from margin moments, as
variance / (variance + mean**2).  These functions rest on the definitions
instead: each learner's error rate for the Gibbs risk, the weight-squared
average of every learner pair's disagreement rate, and the weighted vote
taken row by row.  They are the cross-check.
"""
import numpy as np

from margin_forge.ensemble import PredictionMatrix


def expected_disagreement(matrix: PredictionMatrix, weights) -> float:
    """Weight-squared average over learner pairs of their disagreement rate."""
    w = np.asarray(weights, dtype=float)
    h = matrix.entries.astype(float)      # int8 storage; pair and divide in float64
    n = matrix.n_rows
    # fraction of rows where t and u differ, for all pairs at once
    agree = (h @ h.T) / n                 # in [-1, 1]
    disagree = (1.0 - agree) / 2.0
    return float(w @ disagree @ w)


def c_bound(matrix: PredictionMatrix, weights) -> float:
    """1 - (1 - 2R)**2 / (1 - 2 d_Q), with R the weighted average of the
    learners' error rates and d_Q their expected disagreement."""
    w = np.asarray(weights, dtype=float)
    votes = matrix.entries * matrix.labels    # raw votes back, since y * y = 1
    risk = float(w @ (votes != matrix.labels).mean(axis=1))
    return 1.0 - (1.0 - 2.0 * risk) ** 2 / (1.0 - 2.0 * expected_disagreement(matrix, w))


def majority_vote_error(matrix: PredictionMatrix, weights) -> float:
    """Fraction of rows the weighted vote gets wrong; a tied vote says +1."""
    votes = matrix.entries * matrix.labels
    said = np.where(np.asarray(weights, dtype=float) @ votes >= 0, 1.0, -1.0)
    return float(np.mean(said != matrix.labels))
