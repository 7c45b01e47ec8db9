"""Per-prefix reference for the cumulative margin series.

This is the route export_cmd_series took before it scored a prefix from the
leading rows of the full matrix and the leading raw alphas: build the
ensemble of the first `count` learners as a model of its own, so that the
model derives (and validates) the renormalized vote weights.  The series must
equal what this route gives, bit for bit.
"""
from margin_forge.ensemble import EnsembleModel


def truncate_model(model: EnsembleModel, count: int) -> EnsembleModel:
    """Ensemble formed by the first `count` learners, vote weights renormalized."""
    if not 1 <= count <= model.n_learners:
        raise ValueError("count must lie in [1, n_learners]")
    if count == model.n_learners:
        return model
    return EnsembleModel(model.method, model.trees[:count], model.raw_alphas[:count],
                         model.tree_params, seed=model.seed)
