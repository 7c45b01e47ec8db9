"""Two-phase revised simplex solver.

Problems are stated in a single canonical form: maximize c.x subject to
inequality rows a_ge x >= b_ge and equality rows a_eq x = b_eq, each
block given as one (k, n) array and its k bounds, with x >= 0 and
optional finite upper bounds.  Infeasible and unbounded are reported as
solution statuses, never exceptions.

Pivoting uses the largest-coefficient rule for speed; a prolonged
degenerate stall switches the run to Bland's rule, which cannot cycle.
Both rules break ties by lowest index, so solves are deterministic.
The leaving row is chosen by Harris's ratio test, which pivots on the
largest entry among the rows whose ratio is near the minimum; entries at
or below max(PIVOT_TOL, 1e-9 times the column's largest entry) never
serve as pivots.

Every row but an equality has a slack column, -e_i for a ge row (its
surplus) and +e_i for an upper bound.  A row starts basic on its slack
when the slack's value, its bound times the slack's sign, is at or above
zero: a ge row with a bound at or below zero, or an upper bound.  Every
other row starts on an artificial variable, and phase 1 runs only when
there is one.  So a caller that moves a known feasible point to x = 0,
leaving every ge bound at or below zero, hands the solver a feasible
start and runs no phase 1.  An artificial never re-enters once it
leaves, so its column is never priced.

The engine keeps the basis as an explicit m x m inverse (Chvatal, Linear
Programming, 1983, ch. 7).  A pivot prices every column with one product
of the contiguous transposed constraint matrix and the row prices, takes
the entering column through the inverse for the ratio test, and updates
the inverse by one rank-1 product written into a work block that solve
allocates once.  The inverse is rebuilt from the basis columns every
REBUILD_EVERY pivots and before an "optimal" or "unbounded" verdict is
believed, so rounding that the updates accumulate never decides an
answer.  A basis whose rebuild fails raises SimplexError.

Each solution reports its pivots per phase, whether Bland's rule took
over, how many redundant rows were dropped and how many times the basis
inverse was rebuilt.  An optimal one also reports the prices of its ge
rows, their dual values in row order: the phase-2 reduced costs of their
surplus columns.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

FEAS_TOL = 1e-7      # constraint satisfaction tolerance on reported solutions
BOUND_TOL = 1e-9     # variable bound tolerance
PIVOT_TOL = 1e-11    # entries at or below this never serve as pivots
COST_TOL = 1e-9      # reduced-cost threshold for optimality
REBUILD_EVERY = 64   # pivots between rebuilds of the basis inverse


class SimplexError(RuntimeError):
    """Numerical breakdown inside the solver; distinct from infeasible/unbounded."""


def _row_block(a, b, n: int, what: str):
    # one constraint block as float arrays: a is (k, n), b is (k,), both finite
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    if a is None or b is None:
        raise ValueError(f"{what} rows need both their coefficients and their bounds")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1] != n or b.shape != (a.shape[0],):
        raise ValueError(f"{what} rows must be a (k, {n}) array with k bounds, "
                         f"got {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError(f"non-finite entries in the {what} rows")
    return a, b


@dataclass(frozen=True)
class LpProblem:
    """maximize objective.x  s.t.  a_ge x >= b_ge,  a_eq x = b_eq,  0 <= x (<= upper)."""

    objective: np.ndarray
    a_ge: np.ndarray | None = None
    b_ge: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a nonempty vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite entries in the objective")
        n = c.size
        a_ge, b_ge = _row_block(self.a_ge, self.b_ge, n, "inequality")
        a_eq, b_eq = _row_block(self.a_eq, self.b_eq, n, "equality")
        up = None if self.upper is None else np.asarray(self.upper, dtype=float)
        if up is not None and (up.shape != (n,) or not np.all(np.isfinite(up))):
            raise ValueError("upper must hold one finite bound per variable")
        for name, value in (("objective", c), ("a_ge", a_ge), ("b_ge", b_ge),
                            ("a_eq", a_eq), ("b_eq", b_eq), ("upper", up)):
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective_value: float | None
    pivots: tuple[int, int] = (0, 0)  # per phase; drive-out pivots count in phase 1
    bland: bool = False              # a stall switched a phase to Bland's rule
    dropped_rows: int = 0            # redundant equality rows removed after phase 1
    prices: np.ndarray | None = None  # optimal only: one dual value per ge row
    refactors: int = 0               # times the basis was refactored from its columns

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _bland_entering(costs: np.ndarray) -> int:
    candidates = np.nonzero(costs < -COST_TOL)[0]
    return int(candidates[0]) if candidates.size else -1


def _dantzig_entering(costs: np.ndarray) -> int:
    col = int(np.argmin(costs))
    return col if costs[col] < -COST_TOL else -1


def _pivot_tol(column: np.ndarray) -> float:
    # relative to the column, so a badly scaled column cannot pivot on noise
    return max(PIVOT_TOL, 1e-9 * float(np.abs(column).max())) if column.size else PIVOT_TOL


def _bland_leaving(column: np.ndarray, rhs: np.ndarray, basis: np.ndarray) -> int:
    rows = np.nonzero(column > _pivot_tol(column))[0]
    if rows.size == 0:
        return -1
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    tied = rows[ratios <= best + PIVOT_TOL]
    # Bland: among minimum-ratio rows, leave the lowest-indexed basic variable
    return int(tied[np.argmin(basis[tied])])


def _harris_leaving(column: np.ndarray, rhs: np.ndarray) -> int:
    # among rows whose ratio is within a small window of the minimum, pivot
    # on the largest element; tiny pivots are what blow a basis inverse up
    rows = np.nonzero(column > _pivot_tol(column))[0]
    if rows.size == 0:
        return -1
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    cand = rows[ratios <= best + 1e-9 * (1.0 + abs(best))]
    return int(cand[np.argmax(column[cand])])


class _Basis:
    """The revised simplex state of one solve.

    Columns are numbered structural first (0..n-1), then one slack per ge
    and upper row, then one artificial per row that starts on one.  `at`
    is the transposed structural block, C-contiguous, so a row of it is a
    column of the problem and one product with it prices every column.
    `binv` is the inverse of the basis matrix, `xb` the basic values and
    `cost` the current phase's cost of every column (minimized)."""

    def __init__(self, at: np.ndarray, b: np.ndarray, slack_sign: np.ndarray):
        n, m = at.shape
        self.at, self.b = at, b
        self.slack_rows = np.flatnonzero(slack_sign)
        self.neg_slack_sign = -slack_sign[self.slack_rows]
        n_slack = self.slack_rows.size
        # a slack whose value b_i * sign_i is at least zero starts basic;
        # every other row starts on an artificial of sign(b_i), value |b_i|
        slack_start = slack_sign[self.slack_rows] * b[self.slack_rows] >= 0.0
        starts_on_slack = np.zeros(m, dtype=bool)
        starts_on_slack[self.slack_rows[slack_start]] = True
        self.art_rows = np.flatnonzero(~starts_on_slack)
        self.art_start = n + n_slack
        # the row and sign of every unit column: slacks, then artificials
        self.unit_row = np.concatenate([self.slack_rows, self.art_rows])
        self.unit_sign = np.concatenate([slack_sign[self.slack_rows],
                                         np.where(b[self.art_rows] < 0.0, -1.0, 1.0)])
        self.basis = np.empty(m, dtype=np.intp)
        self.basis[self.slack_rows[slack_start]] = n + np.flatnonzero(slack_start)
        self.basis[self.art_rows] = self.art_start + np.arange(self.art_rows.size)
        diag = self.unit_sign[self.basis - n]
        self.binv = np.diag(diag)
        self.xb = diag * b
        self.cost = np.zeros(self.art_start + self.art_rows.size)
        self.reduced = np.empty(self.art_start)    # reduced costs, rewritten per pricing
        self.work = np.empty((m, m))               # the rank-1 update's block
        self.dropped = np.zeros(0, dtype=np.intp)  # rows whose artificial stays basic
        self.since_rebuild = 0
        self.refactors = 0

    def value(self) -> float:
        # minus the phase's objective, which rises as the phase progresses
        return -float(self.cost[self.basis] @ self.xb)

    def price(self) -> np.ndarray:
        # reduced costs c_j - y.a_j of every structural and slack column
        n = self.at.shape[0]
        y = self.cost[self.basis] @ self.binv
        d = self.reduced
        np.matmul(self.at, y, out=d[:n])
        np.subtract(self.cost[:n], d[:n], out=d[:n])
        np.multiply(self.neg_slack_sign, y[self.slack_rows], out=d[n:])
        return d

    def column(self, q: int) -> np.ndarray:
        # the entering column through the basis inverse, B^-1 a_q
        n = self.at.shape[0]
        if q < n:
            alpha = self.binv @ self.at[q]
        else:
            alpha = self.unit_sign[q - n] * self.binv[:, self.unit_row[q - n]]
        alpha[self.dropped] = 0.0
        return alpha

    def row(self, i: int) -> np.ndarray:
        # row i of B^-1 A over the structural and slack columns
        n = self.at.shape[0]
        out = np.empty(self.art_start)
        np.matmul(self.at, self.binv[i], out=out[:n])
        np.multiply(-self.neg_slack_sign, self.binv[i, self.slack_rows], out=out[n:])
        return out

    def pivot(self, r: int, q: int, alpha: np.ndarray) -> None:
        piv = alpha[r]
        theta = self.xb[r] / piv
        self.xb -= theta * alpha
        self.xb[r] = theta
        prow = self.binv[r] / piv
        # a product with inner dimension 1 is the exact outer product
        np.dot(alpha[:, None], prow[None, :], out=self.work)
        np.subtract(self.binv, self.work, out=self.binv)
        self.binv[r] = prow
        self.basis[r] = q
        self.since_rebuild += 1

    def basis_matrix(self) -> np.ndarray:
        n, m = self.at.shape
        mat = np.zeros((m, m))
        structural = np.flatnonzero(self.basis < n)
        mat[:, structural] = self.at[self.basis[structural]].T
        units = np.flatnonzero(self.basis >= n)
        k = self.basis[units] - n
        mat[self.unit_row[k], units] = self.unit_sign[k]
        return mat

    def rebuild(self) -> None:
        self.binv = np.linalg.inv(self.basis_matrix())
        self.xb = self.binv @ self.b
        self.since_rebuild = 0
        self.refactors += 1


def _rebuild(lp: _Basis, phase: int, pivots: int) -> None:
    try:
        lp.rebuild()
    except np.linalg.LinAlgError as exc:
        raise SimplexError(f"phase {phase} basis could not be refactored after "
                           f"{pivots} pivots: {exc}") from exc


def _run_simplex(lp: _Basis, max_iter: int, phase: int) -> tuple[str, int, bool]:
    # returns the status, the pivots taken and whether Bland's rule took over
    stall_limit = 200 + 2 * (lp.basis.size - lp.dropped.size)
    use_bland = False
    stalled = 0
    last = lp.value()
    it = 0
    while it < max_iter:
        if lp.since_rebuild >= REBUILD_EVERY:
            _rebuild(lp, phase, it)
        costs = lp.price()
        col = _bland_entering(costs) if use_bland else _dantzig_entering(costs)
        if col >= 0:
            alpha = lp.column(col)
            row = (_bland_leaving(alpha, lp.xb, lp.basis) if use_bland
                   else _harris_leaving(alpha, lp.xb))
        if col < 0 or row < 0:
            # a verdict is believed only from a freshly refactored basis
            if lp.since_rebuild:
                _rebuild(lp, phase, it)
                continue
            return ("optimal" if col < 0 else "unbounded"), it, use_bland
        lp.pivot(row, col, alpha)
        it += 1
        if not use_bland:
            value = lp.value()
            if value > last + 1e-9 * (1.0 + abs(last)):
                stalled = 0
            else:
                stalled += 1
                if stalled >= stall_limit:
                    use_bland = True
            last = value
    raise SimplexError(f"phase {phase} iteration limit exceeded after {max_iter} pivots")


def _start(problem: LpProblem) -> _Basis:
    # rows: inequalities, equalities, then x <= upper; every row but an
    # equality gets a slack column, with sign -1 (surplus) or +1
    n = problem.n_vars
    k_ge, k_eq = problem.a_ge.shape[0], problem.a_eq.shape[0]
    upper = problem.upper
    k_up = 0 if upper is None else n
    at = np.concatenate([problem.a_ge.T, problem.a_eq.T] + ([np.eye(n)] if k_up else []),
                        axis=1)
    b = np.concatenate([problem.b_ge, problem.b_eq] + ([upper] if k_up else []))
    slack_sign = np.concatenate([np.full(k_ge, -1.0), np.zeros(k_eq), np.ones(k_up)])
    return _Basis(np.ascontiguousarray(at), b, slack_sign)


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase revised simplex.  Deterministic: ties always break by lowest index."""
    n = problem.n_vars
    upper = problem.upper
    if upper is not None and np.any(upper < -BOUND_TOL):
        return LpSolution("infeasible", None, None)
    lp = _start(problem)
    m = lp.basis.size
    n_art = lp.art_rows.size
    max_iter = 20000 + 50 * (m + lp.art_start + n_art)
    phase1, bland1 = 0, False

    # phase 1: minimize the sum of artificials
    if n_art:
        lp.cost[lp.art_start:] = 1.0
        status, phase1, bland1 = _run_simplex(lp, max_iter, phase=1)
        if status != "optimal":
            raise SimplexError("phase 1 terminated " + status)
        if -lp.value() > FEAS_TOL:
            return LpSolution("infeasible", None, None, pivots=(phase1, 0), bland=bland1,
                              refactors=lp.refactors)
        # drive leftover artificials out of the basis on the largest available
        # pivot; a row with no usable entry is redundant and gets dropped: its
        # artificial stays basic at zero and its row leaves every ratio test
        dropped = []
        for i in range(m):
            if lp.basis[i] >= lp.art_start:
                row = lp.row(i)
                cols = np.nonzero(np.abs(row) > 1e-9)[0]
                if cols.size:
                    col = int(cols[np.argmax(np.abs(row[cols]))])
                    lp.pivot(i, col, lp.column(col))
                    phase1 += 1
                else:
                    dropped.append(i)
        lp.dropped = np.array(dropped, dtype=np.intp)
        if lp.xb.min() < -FEAS_TOL:
            raise SimplexError("phase 1 left an infeasible basis")
        np.clip(lp.xb, 0.0, None, out=lp.xb)
        lp.cost[lp.art_start:] = 0.0

    # phase 2: minimize -objective
    lp.cost[:n] = -problem.objective
    status, phase2, bland2 = _run_simplex(lp, max_iter, phase=2)
    counters = {"pivots": (phase1, phase2), "bland": bland1 or bland2,
                "dropped_rows": lp.dropped.size, "refactors": lp.refactors}
    if status == "unbounded":
        return LpSolution("unbounded", None, None, **counters)

    z = np.zeros(lp.cost.size)
    z[lp.basis] = lp.xb
    x = np.clip(z[:n], 0.0, None)
    if upper is not None:
        x = np.minimum(x, upper)
    # the reduced costs of the surplus columns, priced on the final basis,
    # are the ge rows' dual values in row order
    prices = lp.reduced[n:n + problem.a_ge.shape[0]].copy()
    return LpSolution("optimal", x, float(problem.objective @ x), prices=prices, **counters)

