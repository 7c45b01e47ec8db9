"""Dense-tableau reference for the simplex solver's pivots.

This is the solver as it was before its pivots were made sparse: the
phase-1 tableau stores one identity column per artificial variable, an
`allowed` mask locks each artificial out once it leaves the basis, the
tableau is row-major, and every pivot subtracts a full outer product.
The bodies are kept as they were; the only addition is that each phase
counts its pivots (drive-out pivots count in phase 1) and the solution
carries those counts, the Bland flag, the number of dropped rows and
the ge rows' prices, read from the final cost row.  The solver must
take exactly the same pivots and return exactly the same bytes.
"""
import numpy as np

from margin_forge.simplex import (BOUND_TOL, COST_TOL, FEAS_TOL, PIVOT_TOL, LpProblem,
                                  LpSolution, SimplexError, _bland_leaving,
                                  _harris_leaving, _price_out)


def _bland_entering(costs: np.ndarray, allowed: np.ndarray) -> int:
    candidates = np.nonzero(allowed & (costs < -COST_TOL))[0]
    return int(candidates[0]) if candidates.size else -1


def _dantzig_entering(costs: np.ndarray, allowed: np.ndarray) -> int:
    masked = np.where(allowed, costs, 0.0)
    col = int(np.argmin(masked))
    return col if masked[col] < -COST_TOL else -1


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


def _run_simplex(tableau, basis, allowed, max_iter, lockout_from=None):
    # lockout_from: columns at or past this index are barred from re-entering
    # once they leave the basis (phase-1 artificials)
    # returns (status, pivots, whether Bland's rule took over)
    stall_limit = 200 + 2 * len(basis)
    use_bland = False
    stalled = 0
    last = tableau[-1, -1]
    for it in range(max_iter):
        costs = tableau[-1, :-1]
        col = _bland_entering(costs, allowed) if use_bland else _dantzig_entering(costs, allowed)
        if col < 0:
            return "optimal", it, use_bland
        row = _bland_leaving(tableau, basis, col) if use_bland else _harris_leaving(tableau, col)
        if row < 0:
            return "unbounded", it, use_bland
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
    upper = problem.upper
    if upper is not None and np.any(upper < -BOUND_TOL):
        return LpSolution("infeasible", None, None)

    # rows: inequalities, equalities, then x <= upper; every row but an
    # equality gets a slack column, with sign -1 (surplus) or +1
    k_ge, k_eq = problem.a_ge.shape[0], problem.a_eq.shape[0]
    k_up = 0 if upper is None else n
    m = k_ge + k_eq + k_up
    if m == 0:
        # no constraints beyond x >= 0
        c = problem.objective
        if np.any(c > 0):
            return LpSolution("unbounded", None, None)
        x = np.zeros(n)
        return LpSolution("optimal", x, float(c @ x), prices=np.zeros(0))
    A = np.vstack([problem.a_ge, problem.a_eq] + ([np.eye(n)] if k_up else []))
    b = np.concatenate([problem.b_ge, problem.b_eq] + ([upper] if k_up else []))
    slack_sign = np.concatenate([np.full(k_ge, -1.0), np.zeros(k_eq), np.ones(k_up)])
    slack_rows = np.flatnonzero(slack_sign)

    # flip rows so rhs >= 0
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    slack_sign = np.where(flip, -slack_sign, slack_sign)

    # rows whose slack enters with +1 start basic; the rest get artificials
    art_rows = np.flatnonzero(slack_sign <= 0)
    n_slack, n_art = slack_rows.size, art_rows.size
    art_start = n + n_slack
    total = art_start + n_art
    slack_cols = np.arange(n, art_start)
    art_cols = np.arange(art_start, total)
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n] = A
    tableau[:m, -1] = b
    tableau[slack_rows, slack_cols] = slack_sign[slack_rows]
    tableau[art_rows, art_cols] = 1.0
    start = np.empty(m, dtype=int)
    start[slack_rows] = slack_cols
    start[art_rows] = art_cols
    basis: list[int] = start.tolist()

    max_iter = 20000 + 50 * (m + total)
    phase1, bland1, drop_rows = 0, False, []

    # phase 1: minimize the sum of artificials
    if n_art:
        _price_out(tableau, basis, np.concatenate([np.zeros(art_start), np.ones(n_art)]))
        allowed = np.ones(total, dtype=bool)
        status, phase1, bland1 = _run_simplex(tableau, basis, allowed, max_iter,
                                              lockout_from=art_start)
        if status != "optimal":
            raise SimplexError("phase 1 terminated " + status)
        if -tableau[-1, -1] > FEAS_TOL:
            return LpSolution("infeasible", None, None, pivots=(phase1, 0), bland=bland1)
        # drive leftover artificials out of the basis on the largest available
        # pivot; a row with no usable entry is redundant and gets dropped
        for i in range(m):
            if basis[i] >= art_start:
                row = tableau[i, :art_start]
                cols = np.nonzero(np.abs(row) > 1e-9)[0]
                if cols.size:
                    _pivot(tableau, basis, i, int(cols[np.argmax(np.abs(row[cols]))]))
                    phase1 += 1
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

    # phase 2: minimize -objective
    _price_out(tableau, basis, -problem.objective)
    allowed = np.ones(total, dtype=bool)
    status, phase2, bland2 = _run_simplex(tableau, basis, allowed, max_iter)
    counters = {"pivots": (phase1, phase2), "bland": bland1 or bland2,
                "dropped_rows": len(drop_rows)}
    if status == "unbounded":
        return LpSolution("unbounded", None, None, **counters)

    z = np.zeros(total)
    rhs = tableau[:m, -1]
    for i, bc in enumerate(basis):
        z[bc] = rhs[i]
    x = np.clip(z[:n], 0.0, None)
    if upper is not None:
        x = np.minimum(x, upper)
    prices = tableau[-1, n:n + k_ge].copy()
    return LpSolution("optimal", x, float(problem.objective @ x), prices=prices, **counters)
