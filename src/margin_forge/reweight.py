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
largest entry of its rhs, so every row, those tied at that maximum
among them, starts on its surplus and no phase 1 runs.  The
answer is checked on the margins it reports and against the duality
gap; one that breaks a floor or leaves a gap raises
SelfCheckError, which is a fault of the package, not of the data, so it
ends an experiment instead of failing one simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleError, PredictionMatrix
from .margins import MarginProfile, compute_margins, simplex_weights
from .simplex import FEAS_TOL, LpProblem, solve

SCHEMES = ("uws", "ews", "pws", "sm1", "sm2")
GAP_TOL = 1e-9       # relative duality gap allowed on a margin LP's answer
# sm2 normalizes only a fit whose coefficient sum exceeds this share of their l1
# norm, so the normalized weights' l1 norm stays below 1 / SM2_MIN_SUM_RATIO
SM2_MIN_SUM_RATIO = 1e-3


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


def ews_powers(spec: RewSpec, n: int) -> np.ndarray:
    """n**k down to 1**k, the emphasis of an ews scheme on n rows by rank.

    The reported gain sums emphasis times margin lifts, and a lift of
    margins in [-1, +1] is at most 2.  So an ews whose n**k, or whose total
    times 2, passes the float range is refused with a ValueError naming the
    label and n, before any arithmetic that could overflow.
    """
    try:
        math.pow(n, spec.k)
    except OverflowError:
        raise ValueError(f"{spec.label} on {n} rows: the largest emphasis "
                         f"{n}**{spec.k} lies past the float range") from None
    powers = np.arange(n, 0, -1, dtype=float) ** spec.k
    try:
        total = math.fsum(powers)
    except OverflowError:  # fsum raises where the sum would overflow
        total = math.inf
    if total > np.finfo(float).max / 2:
        raise ValueError(f"{spec.label} on {n} rows: the emphasis total {total:.6g} "
                         f"times the largest lift 2 lies past the float range")
    return powers


def _emphasis(spec: RewSpec, margins: np.ndarray) -> np.ndarray:
    """The row emphasis of a margin-maximizing scheme: all ones (uws),
    n**k down to 1**k from the smallest margin up (ews, see ews_powers), or
    1 on the ceil(n*xi) smallest margins and 0 elsewhere (pws).  Equal
    margins are ordered by row index."""
    n = margins.size
    if spec.scheme == "uws":
        return np.ones(n)
    order = np.argsort(margins, kind="stable")
    r = np.zeros(n)
    if spec.scheme == "ews":
        r[order] = ews_powers(spec, n)
    else:
        r[order[:math.ceil(n * spec.xi)]] = 1.0
    return r


def _margin_lp(matrix: PredictionMatrix, emphasis, floors):
    """Simplex weights maximizing the emphasis-weighted margin total with
    every margin at or above its floor, and their margin profile; None when
    no weights reach the floors.

    The LP, max c.w s.t. S'w >= floors, 1.w = 1, w >= 0 with S the (T, n)
    signed votes (the stored entries, cast to float64) and c = S @ emphasis,
    is solved through its dual: max floors.u - v s.t. -S u + v 1 >= c,
    u >= 0, v free.  The dual has one row per learner and is always
    feasible; the weights are its row prices.  It is stated with v = top + v+ - v-,
    top = max(c), so its rhs is c - top <= 0 and every row starts on its
    surplus (u = 0, v = top is feasible): no phase 1 runs.  The shift
    moves the dual objective by the constant -top and leaves the prices
    as they are.  The clipped prices must sum to 1 (the eq row) and the
    margins returned meet every floor (the ge rows), both within FEAS_TOL,
    and the prices must close the duality gap.
    """
    signed = matrix.entries.astype(float)
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
    off = abs(w.sum() - 1.0)
    if not off <= FEAS_TOL:  # checked first: the weights are divided by the sum
        raise SelfCheckError(f"margin LP answer breaks its eq constraints by {off:.3e}")
    weights = w / w.sum()
    profile = compute_margins(matrix, weights)
    miss = float(np.max(floors - profile.margins))
    if not miss <= FEAS_TOL:
        raise SelfCheckError(f"margin LP answer breaks its ge constraints by {miss:.3e}")
    value = solution.objective_value - top
    gap = abs(c @ w + value)
    if not gap <= GAP_TOL * (1.0 + abs(value)):
        raise SelfCheckError(f"margin LP duality gap {gap:.3e} at objective {-value:.6g}")
    return weights, profile


def _min_norm_fit(matrix: PredictionMatrix, target: float) -> np.ndarray:
    """Minimum-norm least-squares coefficients of the constant `target` on
    the learner rows of the matrix's signed votes S, through the origin.

    Solved on the normal equations G coef = b, G = S S' (matrix.gram(), exact)
    and b = target * S 1 (matrix.learner_sums(), exact), with G's symmetric
    eigendecomposition (Golub & Van Loan, Matrix Computations, 5.3 and 5.5):
    coef is the sum of v (v.b / lam) over the kept eigenpairs, which is the
    pseudo-inverse solution.  Eigenvalues at or below lam_max * T * eps are
    the null space and are dropped; the rest must lie above
    lam_max * sqrt(eps), where the squared conditioning costs no more than
    half the digits.  An eigenvalue between the two leaves no clear gap, so
    the fit falls back to an SVD of the (n, T) design S', cast to float64.
    When every learner's votes sum to 0, the constant is orthogonal to them
    all and the fit is exactly 0, which is returned as such: the SVD would
    return its rounding, of any sum.
    """
    votes = matrix.learner_sums()
    if not votes.any():
        return np.zeros(matrix.n_learners)
    eps = np.finfo(float).eps
    lam, vecs = np.linalg.eigh(matrix.gram())
    top = lam[-1]
    null = lam <= top * matrix.n_learners * eps
    if np.any(~null & (lam <= top * math.sqrt(eps))):
        coef, *_ = np.linalg.lstsq(matrix.entries.astype(float).T,
                                   np.full(matrix.n_rows, target), rcond=None)
        return coef
    kept = vecs[:, ~null]
    return kept @ ((kept.T @ (target * votes)) / lam[~null])


def sm2_weights(matrix: PredictionMatrix, alpha) -> RewResult:
    """Regress the old mean margin, as a constant, on the signed votes
    through the origin, then scale the coefficients to sum 1.

    The fit is the minimum-norm least-squares solution, found through the
    T x T Gram matrix of the learners' signed votes (see _min_norm_fit).
    The objective field reports the residual sum of squares of the
    unnormalized fit, summed from each row's misfit itself.  Another
    constant would scale the fit, and the normalization would divide that
    back out of the weights.  Normalized weights may be negative, and the
    resulting margins may leave [-1, +1].  Their l1 norm is
    |coef|_1 / |sum coef|, and the division lifts the rounding in coef as
    much, so a fit whose sum is at most SM2_MIN_SUM_RATIO of |coef|_1 is
    refused as non-normalizable.  The test is scale free, as the weights are.
    """
    a = simplex_weights(alpha, matrix.n_learners)
    old = compute_margins(matrix, a)
    coef = _min_norm_fit(matrix, old.mean)
    total = coef.sum()
    if not abs(total) > SM2_MIN_SUM_RATIO * np.abs(coef).sum():
        raise EnsembleError(f"non-normalizable solution: coefficients sum to {total:.3g}, "
                            f"at most {SM2_MIN_SUM_RATIO:g} of their absolute sum")
    w = coef / total
    new = compute_margins(matrix, w)
    sse = float(np.sum((matrix.weighted_sum(coef) - old.mean) ** 2))
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
        found = _margin_lp(matrix, np.ones(matrix.n_rows), floors)
        if found is None:
            return RewResult(spec.label, False, old_profile=old)
        w, new = found
        return RewResult(spec.label, True, w, old, new, float((new.margins - old.margins).sum()))
    r = _emphasis(spec, old.margins)
    found = _margin_lp(matrix, r / r.max(), old.margins)
    if found is None:
        raise SelfCheckError("margin LP ended infeasible, expected optimal")
    w, new = found
    gain = float(r @ (new.margins - old.margins))
    if not gain > 0:
        return RewResult(spec.label, True, a.copy(), old, old, 0.0)
    return RewResult(spec.label, True, w, old, new, gain)
