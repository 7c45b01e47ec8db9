"""The dense-tableau simplex engine, kept as an oracle for the revised one.

This is the solver as it stood before its basis was kept as an explicit
inverse: a column-major tableau with the variable and slack columns and
the rhs but no artificial columns, every row with a negative bound
negated first, every row whose slack does not then enter with +1 on an
artificial (a ge row with a zero bound among them), and one dense
in-place update per pivot through a work block.  Tests compare the
revised engine's status and objective with it on every draw, and its
entering and leaving choices on the draws that are free of near-ties.
"""
import numpy as np

from margin_forge.simplex import (BOUND_TOL, COST_TOL, FEAS_TOL, PIVOT_TOL, LpProblem,
                                  LpSolution, SimplexError)


def _bland_entering(costs: np.ndarray) -> int:
    candidates = np.nonzero(costs < -COST_TOL)[0]
    return int(candidates[0]) if candidates.size else -1


def _dantzig_entering(costs: np.ndarray) -> int:
    col = int(np.argmin(costs))
    return col if costs[col] < -COST_TOL else -1


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


def _work(tableau: np.ndarray) -> np.ndarray:
    # one block the shape of the transposed tableau, written by every pivot
    # on it, so that no pivot allocates memory of that size
    return np.empty(tableau.T.shape)


def _pivot(tableau: np.ndarray, work: np.ndarray, basis: list[int], row: int,
           col: int) -> None:
    piv = tableau[row, col]
    if abs(piv) <= PIVOT_TOL:
        raise SimplexError(f"pivot magnitude {abs(piv):.3e} below {PIVOT_TOL:g}")
    tableau[row, :] /= piv
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # the tableau is column-major, so its transpose is the C-ordered view
    # whose shape the outer product has; subtracting in place writes every
    # entry once, and a column where the pivot row holds zero keeps
    # t - f * 0 == t (a zero may lose its sign)
    np.multiply.outer(tableau[row, :], factors, out=work)
    np.subtract(tableau.T, work, out=tableau.T)
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau, work, basis, max_iter, phase: int) -> tuple[str, int, bool]:
    # returns the status, the pivots taken and whether Bland's rule took over
    stall_limit = 200 + 2 * len(basis)
    use_bland = False
    stalled = 0
    last = tableau[-1, -1]
    for it in range(max_iter):
        costs = tableau[-1, :-1]
        col = _bland_entering(costs) if use_bland else _dantzig_entering(costs)
        if col < 0:
            return "optimal", it, use_bland
        row = _bland_leaving(tableau, basis, col) if use_bland else _harris_leaving(tableau, col)
        if row < 0:
            return "unbounded", it, use_bland
        _pivot(tableau, work, basis, row, col)
        if not use_bland:
            value = tableau[-1, -1]
            if value > last + 1e-9 * (1.0 + abs(last)):
                stalled = 0
            else:
                stalled += 1
                if stalled >= stall_limit:
                    use_bland = True
            last = value
    raise SimplexError(f"phase {phase} iteration limit exceeded after {max_iter} pivots")


def _price_out(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    # cost of the leading columns, then cleared on each basic column in
    # basis-row order; that order fixes the rounding of the cost row
    tableau[-1, :] = 0.0
    tableau[-1, :cost.size] = cost
    for i, bc in enumerate(basis):
        if tableau[-1, bc] != 0.0:
            tableau[-1, :] -= tableau[-1, bc] * tableau[i, :]


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
    A = np.vstack([problem.a_ge, problem.a_eq] + ([np.eye(n)] if k_up else []))
    b = np.concatenate([problem.b_ge, problem.b_eq] + ([upper] if k_up else []))
    slack_sign = np.concatenate([np.full(k_ge, -1.0), np.zeros(k_eq), np.ones(k_up)])
    slack_rows = np.flatnonzero(slack_sign)

    # flip rows so rhs >= 0
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)
    slack_sign = np.where(flip, -slack_sign, slack_sign)

    # rows whose slack enters with +1 start basic; the rest start on an
    # artificial variable.  An artificial never re-enters once it leaves,
    # so its column is never read and is not stored: its basis index
    # art_start + k only marks the row
    art_rows = np.flatnonzero(slack_sign <= 0)
    n_slack, n_art = slack_rows.size, art_rows.size
    art_start = n + n_slack
    slack_cols = np.arange(n, art_start)
    tableau = np.zeros((m + 1, art_start + 1), order="F")
    tableau[:m, :n] = A
    tableau[:m, -1] = b
    tableau[slack_rows, slack_cols] = slack_sign[slack_rows]
    start = np.empty(m, dtype=int)
    start[slack_rows] = slack_cols
    start[art_rows] = np.arange(art_start, art_start + n_art)
    basis: list[int] = start.tolist()
    work = _work(tableau)

    max_iter = 20000 + 50 * (m + art_start + n_art)
    phase1, bland1, drop_rows = 0, False, []

    # phase 1: minimize the sum of artificials; its priced-out cost row is
    # minus the artificial rows, subtracted one at a time in row order
    if n_art:
        for i in art_rows:
            tableau[-1, :] -= tableau[i, :]
        status, phase1, bland1 = _run_simplex(tableau, work, basis, max_iter, phase=1)
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
                    _pivot(tableau, work, basis, i, int(cols[np.argmax(np.abs(row[cols]))]))
                    phase1 += 1
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tableau = np.asfortranarray(tableau[keep + [m], :])
            work = _work(tableau)
            basis = [basis[i] for i in keep]
            m = len(basis)
        rhs = tableau[:m, -1]
        if rhs.size and rhs.min() < -FEAS_TOL:
            raise SimplexError("phase 1 left an infeasible basis")
        np.clip(rhs, 0.0, None, out=rhs)

    # phase 2: minimize -objective
    _price_out(tableau, basis, -problem.objective)
    status, phase2, bland2 = _run_simplex(tableau, work, basis, max_iter, phase=2)
    counters = {"pivots": (phase1, phase2), "bland": bland1 or bland2,
                "dropped_rows": len(drop_rows)}
    if status == "unbounded":
        return LpSolution("unbounded", None, None, **counters)

    z = np.zeros(art_start)
    rhs = tableau[:m, -1]
    for i, bc in enumerate(basis):
        z[bc] = rhs[i]
    x = np.clip(z[:n], 0.0, None)
    if upper is not None:
        x = np.minimum(x, upper)
    # the phase-2 reduced costs of the surplus columns are the ge rows'
    # dual values, in row order; a flipped row flips both the sign of its
    # surplus and of its dual, so no correction is needed
    prices = tableau[-1, n:n + k_ge].copy()
    return LpSolution("optimal", x, float(problem.objective @ x), prices=prices, **counters)
