"""Post-hoc vote reweighting that lifts training margins.

Three families:

* margin maximization: a linear program that maximizes the r-weighted
  total margin improvement subject to every margin staying at least as
  large as before, over simplex weights.  The r vector encodes the
  emphasis: all-ones, rank-powered, or an indicator of the smallest
  margins.
* targeted lifting: the same linear program with unit emphasis, but the
  floors push low margins up to the xi-quantile and the rest to the
  mean; this one can genuinely be infeasible, which is reported, not
  raised.
* variance flattening: least squares through the origin that pulls all
  margins toward their old mean, then renormalizes the coefficients to
  sum 1 (they may go negative).

The two LP families share one margin LP.  It is solved through its dual,
which has one row per learner and is always feasible, and the weights
are the dual's row prices.  The dual's free variable is shifted by the
largest entry of its rhs, so every row but those tied at that maximum
starts on its slack and phase 1 takes one pivot per tied row.  The
answer is checked against the primal's constraints and against the
duality gap; one that breaks a floor or leaves a gap raises
SelfCheckError, which is a fault of the package, not of the data, so it
ends an experiment instead of failing one simulation.
Margin maximization keeps alpha when the LP's answer does not score above
it under the caller's emphasis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import EnsembleError, PredictionMatrix
from .margins import MarginProfile, compute_margins, simplex_weights
from .simplex import FEAS_TOL, LpProblem, residuals, solve

SCHEMES = ("uws", "ews", "pws", "sm1", "sm2")
GAP_TOL = 1e-9       # relative duality gap allowed on a margin LP's answer


class SelfCheckError(RuntimeError):
    """A margin LP answer failed the package's own check.  Unlike
    SimplexError, this is a bug and never a per-simulation failure."""


@dataclass(frozen=True)
class RewSpec:
    scheme: str
    k: int = 5
    xi: float = 0.05

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.scheme == "ews" and (int(self.k) != self.k or self.k < 1):
            raise ValueError("ews needs a positive integer power")
        if self.scheme in ("pws", "sm1") and not 0.0 < self.xi < 1.0:
            raise ValueError("the proportion must lie in (0, 1)")

    @property
    def label(self) -> str:
        if self.scheme == "ews":
            return f"ews:{self.k}"
        if self.scheme in ("pws", "sm1"):
            return f"{self.scheme}:{self.xi:g}"
        return self.scheme


def parse_spec(text: str) -> RewSpec:
    """Accepts uws | ews[:k] | pws:xi | sm1[:xi] | sm2."""
    head, _, arg = text.strip().lower().partition(":")
    if head in ("uws", "sm2"):
        if arg:
            raise ValueError(f"{head} takes no parameter")
        return RewSpec(head)
    if head == "ews":
        return RewSpec("ews", k=int(arg) if arg else 5)
    if head == "pws":
        if not arg:
            raise ValueError("pws needs a proportion, e.g. pws:0.05")
        return RewSpec("pws", xi=float(arg))
    if head == "sm1":
        return RewSpec("sm1", xi=float(arg) if arg else 0.05)
    raise ValueError(f"unknown scheme {text!r}")


@dataclass(frozen=True)
class RewResult:
    scheme: str
    feasible: bool
    weights: np.ndarray | None = None
    old_profile: MarginProfile | None = None
    new_profile: MarginProfile | None = None
    objective: float | None = None
    variance_reduction: float | None = None
    range_reduction: float | None = None


def uws_r(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("need n >= 1")
    return np.ones(n)


def _ascending_ranks(margins) -> np.ndarray:
    # rank 1 = smallest margin; equal margins ranked by observation index
    m = np.asarray(margins, dtype=float)
    order = np.argsort(m, kind="stable")
    ranks = np.empty(m.size, dtype=int)
    ranks[order] = np.arange(1, m.size + 1)
    return ranks


def ews_r(margins, k: int = 5) -> np.ndarray:
    if int(k) != k or k < 1:
        raise ValueError("k must be a positive integer")
    m = np.asarray(margins, dtype=float)
    n = m.size
    return ((n + 1) - _ascending_ranks(m)).astype(float) ** k


def pws_r(margins, xi: float) -> np.ndarray:
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie in (0, 1)")
    m = np.asarray(margins, dtype=float)
    n = m.size
    k = math.ceil(n * xi)
    r = np.zeros(n)
    r[np.argsort(m, kind="stable")[:k]] = 1.0
    return r


def _finish(scheme: str, w, old: MarginProfile, new: MarginProfile,
            objective: float) -> RewResult:
    return RewResult(scheme=scheme, feasible=True, weights=w, old_profile=old,
                     new_profile=new, objective=objective,
                     variance_reduction=old.variance - new.variance,
                     range_reduction=old.spread - new.spread)


def _margin_lp(matrix: PredictionMatrix, emphasis, floors) -> np.ndarray | None:
    """Simplex weights maximizing the emphasis-weighted margin total with
    every margin at or above its floor, checked against the LP's own
    constraints and its duality gap; None when no weights reach the floors.

    The LP, max c.w s.t. S'w >= floors, 1.w = 1, w >= 0 with S the (T, n)
    signed votes (the stored entries) and c = S @ emphasis, is solved
    through its dual: max floors.u - v s.t. -S u + v 1 >= c, u >= 0, v
    free.  The dual has one row per learner and is always feasible; the
    weights are its row prices.  It is stated with v = top + v+ - v-,
    top = max(c), so its rhs is c - top <= 0 and every row but those tied
    at the maximum starts on its slack (u = 0, v = top is feasible):
    phase 1 takes one pivot per tied row.  The shift moves the dual
    objective by the constant -top and leaves the prices as they are.
    """
    signed = matrix.entries
    c = signed @ emphasis
    top = c.max()
    ones = np.ones((matrix.n_learners, 1))
    dual = LpProblem(np.concatenate([floors, [-1.0, 1.0]]),
                     a_ge=np.hstack([-signed, ones, -ones]), b_ge=c - top)
    solution = solve(dual)
    if solution.status == "unbounded":
        return None
    if not solution.optimal:
        raise SelfCheckError(f"margin LP dual ended {solution.status}, expected optimal")
    w = np.clip(solution.prices, 0.0, None)
    primal = LpProblem(c, a_ge=signed.T, b_ge=floors,
                       a_eq=ones.T, b_eq=np.ones(1))
    violations = residuals(primal, w)
    worst = max(violations, key=violations.get)
    if not violations[worst] <= FEAS_TOL:
        raise SelfCheckError(f"margin LP answer breaks its {worst} constraints by "
                             f"{violations[worst]:.3e}")
    value = solution.objective_value - top
    gap = abs(c @ w + value)
    if not gap <= GAP_TOL * (1.0 + abs(value)):
        raise SelfCheckError(f"margin LP duality gap {gap:.3e} at objective {-value:.6g}")
    return w / w.sum()


def mm_weights(matrix: PredictionMatrix, alpha, r) -> RewResult:
    """Maximize the r-weighted margin gain, never letting a margin drop.

    Feasible by construction (alpha itself satisfies every constraint).
    When the LP's answer does not score above alpha under r, alpha is
    kept with objective 0, so the reported objective is never negative.
    The r vector is rescaled by its maximum before entering the solver;
    positive scaling cannot change the set of optimal weight vectors.
    """
    a = simplex_weights(alpha, matrix.n_learners)
    r = np.asarray(r, dtype=float)
    if r.shape != (matrix.n_rows,):
        raise ValueError("one emphasis value per observation required")
    if np.any(r < 0) or not np.any(r > 0):
        raise ValueError("emphasis must be nonnegative and not all zero")
    old = compute_margins(matrix, a)
    w = _margin_lp(matrix, r / r.max(), old.margins)
    if w is None:
        raise SelfCheckError("margin LP ended infeasible, expected optimal")
    new = compute_margins(matrix, w)
    # judge the answer under the caller's r, not the rescaled one; alpha
    # meets every floor, so an answer that does not beat it is rounding noise
    gain = float(r @ (new.margins - old.margins))
    if not gain > 0:
        return _finish("mm", a.copy(), old, old, 0.0)
    return _finish("mm", w, old, new, gain)


def sm1_weights(matrix: PredictionMatrix, alpha, xi: float = 0.05) -> RewResult:
    """Lift the low half of the margins to the xi-quantile and hold the
    rest at the mean; infeasibility is a reported outcome."""
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie in (0, 1)")
    a = simplex_weights(alpha, matrix.n_learners)
    old = compute_margins(matrix, a)
    floors = np.where(old.margins <= old.mean, old.percentile(xi), old.mean)
    w = _margin_lp(matrix, np.ones(matrix.n_rows), floors)
    if w is None:
        return RewResult(scheme="sm1", feasible=False, old_profile=old)
    new = compute_margins(matrix, w)
    return _finish("sm1", w, old, new, float((new.margins - old.margins).sum()))


def _min_norm_fit(design: np.ndarray, target: float) -> np.ndarray:
    """Minimum-norm least-squares coefficients of the constant `target` on
    the rows of `design` (one ±1 row per learner), through the origin.

    Solved on the normal equations G coef = b, G = design @ design.T and
    b = target * design.sum(axis=1), with G's symmetric eigendecomposition
    (Golub & Van Loan, Matrix Computations, 5.3 and 5.5): coef is the sum of
    v (v.b / lam) over the kept eigenpairs, which is the pseudo-inverse
    solution.  G's entries are sums of ±1 products, exact in any summation
    order.  Eigenvalues at or below lam_max * T * eps are the null space and
    are dropped; the rest must lie above lam_max * sqrt(eps), where the
    squared conditioning costs no more than half the digits.  An eigenvalue
    between the two leaves no clear gap, so the fit falls back to an SVD of
    the (n, T) design.
    """
    eps = np.finfo(float).eps
    lam, vecs = np.linalg.eigh(design @ design.T)
    top = lam[-1]
    null = lam <= top * design.shape[0] * eps
    if np.any(~null & (lam <= top * math.sqrt(eps))):
        coef, *_ = np.linalg.lstsq(design.T, np.full(design.shape[1], target), rcond=None)
        return coef
    kept = vecs[:, ~null]
    return kept @ ((kept.T @ (target * design.sum(axis=1))) / lam[~null])


def sm2_weights(matrix: PredictionMatrix, alpha) -> RewResult:
    """Regress the old mean margin, as a constant, on the signed votes
    through the origin, then scale the coefficients to sum 1.

    The fit is the minimum-norm least-squares solution, found through the
    T x T Gram matrix of the learners' signed votes (see _min_norm_fit).
    The objective field reports the residual sum of squares of the
    unnormalized fit, computed from the residuals themselves.  Another
    constant would scale the fit, and the normalization would divide that
    back out of the weights.  Normalized weights may be negative, and the
    resulting margins may leave [-1, +1].
    """
    a = simplex_weights(alpha, matrix.n_learners)
    old = compute_margins(matrix, a)
    signed = matrix.entries
    coef = _min_norm_fit(signed, old.mean)
    total = coef.sum()
    if abs(total) < 1e-9:
        raise EnsembleError("non-normalizable solution: coefficients sum to zero")
    w = coef / total
    new = compute_margins(matrix, w)
    sse = float(np.sum((coef @ signed - old.mean) ** 2))
    return _finish("sm2", w, old, new, sse)


def apply_scheme(spec: RewSpec, matrix: PredictionMatrix, alpha) -> RewResult:
    """Dispatch a parsed scheme against a prediction matrix."""
    if spec.scheme == "sm1":
        result = sm1_weights(matrix, alpha, spec.xi)
    elif spec.scheme == "sm2":
        result = sm2_weights(matrix, alpha)
    else:
        a = simplex_weights(alpha, matrix.n_learners)
        old = compute_margins(matrix, a)
        if spec.scheme == "uws":
            r = uws_r(matrix.n_rows)
        elif spec.scheme == "ews":
            r = ews_r(old.margins, spec.k)
        else:
            r = pws_r(old.margins, spec.xi)
        result = mm_weights(matrix, alpha, r)
    return replace(result, scheme=spec.label)
