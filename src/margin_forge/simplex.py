"""Dense two-phase simplex solver.

Problems are stated in a single canonical form: maximize c.x subject to
"coeffs.x >= bound" inequality rows, equality rows, and finite variable
lower bounds (default 0) with optional upper bounds.  Infeasible and
unbounded are reported as solution statuses, never exceptions.

Pivoting uses the largest-coefficient rule for speed; a prolonged
degenerate stall switches the run to Bland's rule, which cannot cycle.
Both rules break ties by lowest index, so solves are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

FEAS_TOL = 1e-7      # constraint satisfaction tolerance on reported solutions
BOUND_TOL = 1e-9     # variable bound tolerance
PIVOT_TOL = 1e-11    # entries at or below this never serve as pivots
COST_TOL = 1e-9      # reduced-cost threshold for optimality


class SimplexError(RuntimeError):
    """Numerical breakdown inside the solver; distinct from infeasible/unbounded."""


def _rows_to_arrays(rows, n_vars: int, what: str):
    if rows is None:
        return np.zeros((0, n_vars)), np.zeros(0)
    coeffs = np.atleast_2d(np.asarray([r[0] for r in rows], dtype=float))
    rhs = np.asarray([r[1] for r in rows], dtype=float)
    if len(rows) == 0:
        return np.zeros((0, n_vars)), np.zeros(0)
    if coeffs.shape[1] != n_vars:
        raise ValueError(f"{what} row length {coeffs.shape[1]} != {n_vars} variables")
    return coeffs, rhs


@dataclass(frozen=True)
class LpProblem:
    """maximize objective.x  s.t.  a_ge x >= b_ge,  a_eq x = b_eq,  lower <= x (<= upper)."""

    objective: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray | None

    def __init__(self, objective, ge_rows=None, eq_rows=None, lower=None, upper=None):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a nonempty vector")
        n = c.size
        a_ge, b_ge = _rows_to_arrays(ge_rows, n, "inequality")
        a_eq, b_eq = _rows_to_arrays(eq_rows, n, "equality")
        lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
        up = None if upper is None else np.asarray(upper, dtype=float)
        for name, arr in (("objective", c), ("inequality", a_ge), ("bounds", b_ge),
                          ("equality", a_eq), ("values", b_eq), ("lower", lo)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
        if lo.shape != (n,) or (up is not None and up.shape != (n,)):
            raise ValueError("bound vectors must match the variable count")
        if up is not None and not np.all(np.isfinite(up)):
            raise ValueError("non-finite entries in upper")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a_ge", a_ge)
        object.__setattr__(self, "b_ge", b_ge)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective_value: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _bland_entering(costs: np.ndarray, allowed: np.ndarray) -> int:
    candidates = np.nonzero(allowed & (costs < -COST_TOL))[0]
    return int(candidates[0]) if candidates.size else -1


def _dantzig_entering(costs: np.ndarray, allowed: np.ndarray) -> int:
    masked = np.where(allowed, costs, 0.0)
    col = int(np.argmin(masked))
    return col if masked[col] < -COST_TOL else -1


def _bland_leaving(tableau: np.ndarray, basis: list[int], col: int) -> int:
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    rows = np.nonzero(column > PIVOT_TOL)[0]
    if rows.size == 0:
        return -1
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    tied = rows[ratios <= best + PIVOT_TOL]
    # Bland: among minimum-ratio rows, leave the lowest-indexed basic variable
    return int(min(tied, key=lambda r: basis[r]))


def _harris_leaving(tableau: np.ndarray, col: int) -> int:
    # among rows whose ratio is within a small window of the minimum, pivot
    # on the largest element; tiny pivots are what blow a dense tableau up
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    rows = np.nonzero(column > PIVOT_TOL)[0]
    if rows.size == 0:
        return -1
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    cand = rows[ratios <= best + 1e-9 * (1.0 + abs(best))]
    return int(cand[np.argmax(column[cand])])


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    piv = tableau[row, col]
    if abs(piv) <= PIVOT_TOL:
        raise SimplexError(f"pivot magnitude {abs(piv):.3e} below {PIVOT_TOL:g}")
    tableau[row, :] /= piv
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row, :])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau, basis, allowed, max_iter, lockout_from=None) -> str:
    # lockout_from: columns at or past this index are barred from re-entering
    # once they leave the basis (phase-1 artificials)
    stall_limit = 200 + 2 * len(basis)
    use_bland = False
    stalled = 0
    last = tableau[-1, -1]
    for _ in range(max_iter):
        costs = tableau[-1, :-1]
        col = _bland_entering(costs, allowed) if use_bland else _dantzig_entering(costs, allowed)
        if col < 0:
            return "optimal"
        row = _bland_leaving(tableau, basis, col) if use_bland else _harris_leaving(tableau, col)
        if row < 0:
            return "unbounded"
        departing = basis[row]
        _pivot(tableau, basis, row, col)
        if lockout_from is not None and departing >= lockout_from:
            allowed[departing] = False
        if not use_bland:
            value = tableau[-1, -1]
            if value > last + 1e-9 * (1.0 + abs(last)):
                stalled = 0
            else:
                stalled += 1
                if stalled >= stall_limit:
                    use_bland = True
            last = value
    raise SimplexError("iteration limit exceeded")


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase dense simplex.  Deterministic: ties always break by lowest index."""
    n = problem.n_vars
    lo = problem.lower
    if problem.upper is not None and np.any(problem.upper < lo - BOUND_TOL):
        return LpSolution("infeasible", None, None)

    # shift to z = x - lower >= 0
    a_rows = [problem.a_ge, problem.a_eq]
    b_rows = [problem.b_ge - problem.a_ge @ lo, problem.b_eq - problem.a_eq @ lo]
    kinds = ["ge"] * problem.a_ge.shape[0] + ["eq"] * problem.a_eq.shape[0]
    if problem.upper is not None:
        eye = np.eye(n)
        a_rows.append(eye)
        b_rows.append(problem.upper - lo)
        kinds += ["le"] * n
    A = np.vstack(a_rows)
    b = np.concatenate(b_rows)
    m = A.shape[0]
    if m == 0:
        # no constraints beyond bounds: maximize over the box directly
        c = problem.objective
        if problem.upper is None:
            if np.any(c > 0):
                return LpSolution("unbounded", None, None)
            return LpSolution("optimal", lo.copy(), float(c @ lo))
        x = np.where(c > 0, problem.upper, lo)
        return LpSolution("optimal", x, float(c @ x))

    # slack/surplus per inequality row, then flip rows so rhs >= 0
    n_slack = sum(k != "eq" for k in kinds)
    slack_sign = np.zeros(m)
    slack_col = np.full(m, -1, dtype=int)
    j = n
    for i, kind in enumerate(kinds):
        if kind == "le":
            slack_sign[i] = 1.0
        elif kind == "ge":
            slack_sign[i] = -1.0
        if kind != "eq":
            slack_col[i] = j
            j += 1
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    slack_sign = np.where(flip, -slack_sign, slack_sign)

    # rows whose slack enters with +1 start basic; the rest get artificials
    art_rows = [i for i in range(m) if slack_sign[i] <= 0]
    n_art = len(art_rows)
    total = n + n_slack + n_art
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n] = A
    tableau[:m, -1] = b
    basis: list[int] = [0] * m
    for i in range(m):
        if slack_col[i] >= 0:
            tableau[i, slack_col[i]] = slack_sign[i]
        if slack_sign[i] > 0:
            basis[i] = slack_col[i]
    for k, i in enumerate(art_rows):
        col = n + n_slack + k
        tableau[i, col] = 1.0
        basis[i] = col

    max_iter = 20000 + 50 * (m + total)

    # phase 1: minimize the sum of artificials
    if n_art:
        cost1 = np.zeros(total + 1)
        cost1[n + n_slack:total] = 1.0
        tableau[-1, :] = cost1
        for i, bc in enumerate(basis):
            if tableau[-1, bc] != 0.0:
                tableau[-1, :] -= tableau[-1, bc] * tableau[i, :]
        allowed = np.ones(total, dtype=bool)
        status = _run_simplex(tableau, basis, allowed, max_iter,
                              lockout_from=n + n_slack)
        if status != "optimal":
            raise SimplexError("phase 1 terminated " + status)
        if -tableau[-1, -1] > FEAS_TOL:
            return LpSolution("infeasible", None, None)
        # drive leftover artificials out of the basis on the largest available
        # pivot; a row with no usable entry is redundant and gets dropped
        art_start = n + n_slack
        drop_rows = []
        for i in range(m):
            if basis[i] >= art_start:
                row = tableau[i, :art_start]
                cols = np.nonzero(np.abs(row) > 1e-9)[0]
                if cols.size:
                    _pivot(tableau, basis, i, int(cols[np.argmax(np.abs(row[cols]))]))
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tableau = np.vstack([tableau[keep, :], tableau[-1:, :]])
            basis = [basis[i] for i in keep]
            m = len(basis)
        tableau = np.hstack([tableau[:, :art_start], tableau[:, -1:]])
        total = art_start
        rhs = tableau[:m, -1]
        if rhs.size and rhs.min() < -FEAS_TOL:
            raise SimplexError("phase 1 left an infeasible basis")
        np.clip(rhs, 0.0, None, out=rhs)

    # phase 2: minimize -objective over the shifted variables
    cost2 = np.zeros(total + 1)
    cost2[:n] = -problem.objective
    tableau[-1, :] = cost2
    for i, bc in enumerate(basis):
        if tableau[-1, bc] != 0.0:
            tableau[-1, :] -= tableau[-1, bc] * tableau[i, :]
    allowed = np.ones(total, dtype=bool)
    status = _run_simplex(tableau, basis, allowed, max_iter)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    z = np.zeros(total)
    rhs = tableau[:m, -1]
    for i, bc in enumerate(basis):
        z[bc] = rhs[i]
    x = lo + np.clip(z[:n], 0.0, None)
    if problem.upper is not None:
        x = np.minimum(x, problem.upper)
    return LpSolution("optimal", x, float(problem.objective @ x))


def residuals(problem: LpProblem, x: np.ndarray) -> dict[str, float]:
    """Worst-case constraint violations of a candidate point (diagnostics)."""
    out = {"ge": 0.0, "eq": 0.0, "lower": 0.0, "upper": 0.0}
    if problem.a_ge.shape[0]:
        out["ge"] = float(np.max(np.clip(problem.b_ge - problem.a_ge @ x, 0.0, None)))
    if problem.a_eq.shape[0]:
        out["eq"] = float(np.max(np.abs(problem.a_eq @ x - problem.b_eq)))
    out["lower"] = float(np.max(np.clip(problem.lower - x, 0.0, None)))
    if problem.upper is not None:
        out["upper"] = float(np.max(np.clip(x - problem.upper, 0.0, None)))
    return out
