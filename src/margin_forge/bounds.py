"""Generalization-bound calculators for voting ensembles.

Three classical forms are evaluated as empirical plug-ins.  The
margin-threshold form keeps its two terms separate (its hidden
constant is nobody's to invent); the minimum-margin form carries
domain preconditions surfaced through an `applicable` flag; the
risk/disagreement form, the C-bound, is computed from margin moments,
which for simplex weights equal the Gibbs risk and the pairwise expected
disagreement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import PredictionMatrix
from .margins import MarginProfile, compute_margins, simplex_weights

BOUND_NAMES = ("schapire", "breiman", "germain")


@dataclass(frozen=True)
class BoundReport:
    name: str
    applicable: bool
    value: float | None = None
    terms: tuple[float, float] | None = None   # (empirical, complexity) pair
    reason: str | None = None
    inputs: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.name not in BOUND_NAMES:
            raise ValueError(f"name must be one of {BOUND_NAMES}")
        if self.applicable and self.value is not None and not math.isfinite(self.value):
            raise ValueError("an applicable bound must carry a finite value")


def _simplex_margins(profile: MarginProfile) -> bool:
    return bool(np.all(profile.margins >= -1 - 1e-9)
                and np.all(profile.margins <= 1 + 1e-9))


def schapire_terms(profile: MarginProfile, theta: float, d: float, n: int) -> BoundReport:
    """Margin-threshold form: empirical mass at or below theta, and the
    d/(n theta^2) complexity root, reported as separate terms."""
    if not 0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    if not 0 < d < math.inf or n < 1:
        raise ValueError("need a positive finite capacity d and n >= 1")
    scale = n * theta * theta
    complexity = math.sqrt(d / scale) if scale > 0.0 else math.inf
    if not 0.0 < complexity < math.inf:
        raise ValueError(f"sqrt(d / (n theta^2)) leaves the float range at theta = {theta:.6g}")
    if not _simplex_margins(profile):
        return BoundReport("schapire", applicable=False,
                           reason="margins leave [-1, 1]; weights were not simplex",
                           inputs={"theta": theta, "d": d, "n": n})
    empirical = float(np.mean(profile.margins <= theta))
    return BoundReport(
        "schapire", applicable=True, terms=(empirical, complexity),
        inputs={"theta": theta, "d": d, "n": n},
        flags=("terms reported separately; the hidden constant is not invented",),
    )


def breiman_bound(theta0: float, hspace: float, n: int, delta: float) -> BoundReport:
    """Minimum-margin form over a finite hypothesis space of size hspace."""
    if not math.isfinite(theta0):
        raise ValueError("theta0 must be finite")
    if not 2 <= hspace < math.inf:
        raise ValueError("hypothesis-space size must be finite and >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    inputs = {"theta0": theta0, "hspace": hspace, "n": n, "delta": delta}
    gate = 4.0 * math.sqrt(2.0 / hspace)
    if theta0 <= gate:
        return BoundReport("breiman", applicable=False, inputs=inputs,
                           reason=f"theta0 must exceed 4*sqrt(2/|H|) = {gate:.6g}")
    R = (32.0 / (n * theta0 * theta0)) * math.log(2.0 * hspace)
    if R == 0.0:
        raise ValueError(f"R underflows to 0 at theta0 = {theta0:.6g}")
    inputs["R"] = R
    if R > 2.0 * n:
        return BoundReport("breiman", applicable=False, inputs=inputs,
                           reason=f"R = {R:.6g} exceeds 2n")
    value = R * (1.0 + math.log(2.0 * n) + math.log(1.0 / R)) \
        + math.log(hspace / delta) / n
    flags = []
    if not 0.0 <= value <= 1.0:
        flags.append("value outside [0, 1], reported unclamped")
    return BoundReport("breiman", applicable=True, value=value,
                       inputs=inputs, flags=tuple(flags))


def gibbs_risk(matrix: PredictionMatrix, weights) -> float:
    """Vote-weighted average of the individual learner error rates, over
    simplex weights (checked as germain_bound checks them)."""
    w = simplex_weights(weights, matrix.n_learners)
    return float(w @ (matrix.entries < 0).mean(axis=1, dtype=float))


def germain_bound(matrix: PredictionMatrix, weights) -> BoundReport:
    """The C-bound of Lacasse et al. 2006 and Germain et al. 2015 (JMLR),
    computed from margin moments.

    R = (1 - mean margin)/2 and d_Q = (1 - mean squared margin)/2; both
    identities hold exactly for simplex weights and +-1 predictions.  The
    C-bound 1 - (1 - 2R)**2 / (1 - 2 d_Q) is 1 - mu1**2 / mu2 in margin
    moments, reported as sigma**2 / (sigma**2 + mu1**2) with sigma**2 the
    margins' population variance: it lies in [0, 1] by construction, and by
    Cantelli's inequality it bounds the fraction of margins at or below 0,
    so the majority vote's error, under any distribution, the sample's
    among them.  It needs a positive mean margin.
    """
    profile = compute_margins(matrix, simplex_weights(weights, matrix.n_learners))
    R = (1.0 - profile.mean) / 2.0
    d_q = (1.0 - profile.second_moment) / 2.0
    inputs = {"gibbs_risk": R, "disagreement": d_q,
              "margin_mean": profile.mean,
              "margin_second_moment": profile.second_moment}
    if profile.mean <= 0:
        return BoundReport("germain", applicable=False, inputs=inputs,
                           reason="margin mean must be positive")
    variance = profile.variance
    return BoundReport("germain", applicable=True,
                       value=variance / (variance + profile.mean ** 2), inputs=inputs)


def report_rows(report: BoundReport) -> list[str]:
    """Tab-delimited lines for CLI output."""
    rows = [f"name\t{report.name}", f"applicable\t{report.applicable}"]
    if report.value is not None:
        rows.append(f"value\t{report.value:.10g}")
    if report.terms is not None:
        rows.append(f"empirical_term\t{report.terms[0]:.10g}")
        rows.append(f"complexity_term\t{report.terms[1]:.10g}")
    if report.reason:
        rows.append(f"reason\t{report.reason}")
    for key, val in report.inputs.items():
        rows.append(f"{key}\t{val:.10g}" if isinstance(val, float) else f"{key}\t{val}")
    for flag in report.flags:
        rows.append(f"note\t{flag}")
    return rows
