"""Pairwise expected disagreement of a weighted vote.

The package computes the risk/disagreement bound from margin moments
(`germain_bound`).  This function is the pairwise definition it rests
on, the weight-squared average of every learner pair's disagreement
rate, kept as it was in the package as the cross-check.
"""
import numpy as np

from margin_forge.ensemble import PredictionMatrix


def expected_disagreement(matrix: PredictionMatrix, weights) -> float:
    """Weight-squared average over learner pairs of their disagreement rate."""
    w = np.asarray(weights, dtype=float)
    h = matrix.entries.astype(float)      # float32 storage; divide in float64
    n = matrix.n_rows
    # fraction of rows where t and u differ, for all pairs at once
    agree = (h @ h.T) / n                 # in [-1, 1]
    disagree = (1.0 - agree) / 2.0
    return float(w @ disagree @ w)
