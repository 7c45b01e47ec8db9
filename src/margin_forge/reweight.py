"""Post-hoc vote reweighting that lifts training margins.

parse_spec reads a scheme (uws | ews[:k] | pws:xi | sm1[:xi] | sm2) into
a RewSpec, and apply_scheme reweights a prediction matrix's votes under
it.  The schemes fall in three families:

* margin maximization (uws, ews, pws): a linear program that maximizes
  the emphasis-weighted total margin gain, with every margin at least as
  large as before, over simplex weights.  The emphasis is all ones,
  rank-powered, or an indicator of the smallest margins.
* targeted lifting (sm1): the same linear program with unit emphasis,
  but the floors push low margins up to the xi-quantile and the rest to
  the mean; this one can genuinely be infeasible, which is reported, not
  raised.
* variance flattening (sm2): least squares through the origin that pulls
  all margins toward their old mean, then renormalizes the coefficients
  to sum 1 (they may go negative).

The two LP families share one margin LP.  It is solved through its dual,
which has one row per learner and is always feasible, and the weights
are the dual's row prices.  The dual's free variable is shifted by the
largest entry of its rhs, so every row but those tied at that maximum
starts on its slack and phase 1 takes one pivot per tied row.  The
answer is checked against the primal's constraints and against the
duality gap; one that breaks a floor or leaves a gap raises
SelfCheckError, which is a fault of the package, not of the data, so it
ends an experiment instead of failing one simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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

    @property
    def variance_reduction(self) -> float | None:
        if self.new_profile is None:
            return None
        return self.old_profile.variance - self.new_profile.variance

    @property
    def range_reduction(self) -> float | None:
        if self.new_profile is None:
            return None
        return self.old_profile.spread - self.new_profile.spread


def _emphasis(spec: RewSpec, margins: np.ndarray) -> np.ndarray:
    """The row emphasis of a margin-maximizing scheme: all ones (uws),
    n**k down to 1**k from the smallest margin up (ews), or 1 on the
    ceil(n*xi) smallest margins and 0 elsewhere (pws).  Equal margins are
    ordered by row index."""
    n = margins.size
    if spec.scheme == "uws":
        return np.ones(n)
    order = np.argsort(margins, kind="stable")
    r = np.zeros(n)
    if spec.scheme == "ews":
        r[order] = np.arange(n, 0, -1, dtype=float) ** spec.k
    else:
        r[order[:math.ceil(n * spec.xi)]] = 1.0
    return r


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
    return RewResult("sm2", True, w, old, new, sse)


def apply_scheme(spec: RewSpec, matrix: PredictionMatrix, alpha) -> RewResult:
    """Reweight the votes `alpha` of a prediction matrix under a parsed scheme.

    sm2 is sm2_weights.  The others solve the margin LP from the margins
    under alpha.  uws, ews and pws floor every margin at its old value
    and maximize the emphasis-weighted gain; the emphasis is rescaled by
    its maximum for the solver, which cannot change the optimal weights.
    alpha meets every floor, so an LP found infeasible there is a fault;
    and an answer that does not score above alpha under the emphasis is
    rounding noise, so alpha is kept with objective 0.  sm1 floors the
    margins at or below the mean at the xi-quantile and the rest at the
    mean, maximizes the total gain, and reports no weights reaching those
    floors as infeasible.
    """
    if spec.scheme == "sm2":
        return sm2_weights(matrix, alpha)
    a = simplex_weights(alpha, matrix.n_learners)
    old = compute_margins(matrix, a)
    if spec.scheme == "sm1":
        floors = np.where(old.margins <= old.mean, old.percentile(spec.xi), old.mean)
        w = _margin_lp(matrix, np.ones(matrix.n_rows), floors)
        if w is None:
            return RewResult(spec.label, False, old_profile=old)
        new = compute_margins(matrix, w)
        return RewResult(spec.label, True, w, old, new, float((new.margins - old.margins).sum()))
    r = _emphasis(spec, old.margins)
    w = _margin_lp(matrix, r / r.max(), old.margins)
    if w is None:
        raise SelfCheckError("margin LP ended infeasible, expected optimal")
    new = compute_margins(matrix, w)
    gain = float(r @ (new.margins - old.margins))
    if not gain > 0:
        return RewResult(spec.label, True, a.copy(), old, old, 0.0)
    return RewResult(spec.label, True, w, old, new, gain)
