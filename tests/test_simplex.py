import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margin_forge import simplex
from margin_forge.cart import TreeParams
from margin_forge.dataset_io import generate_synthetic
from margin_forge.ensemble import PredictionMatrix, adaboost, prediction_matrix
from margin_forge.margins import compute_margins
from margin_forge.simplex import LpProblem, LpSolution, SimplexError, solve

import emphasis_oracle
import pivot_oracle
from bench_data import ionosphere_like, pima_like, sonar_like
from lp_oracle import oracle_solve, random_lp, residuals


def test_single_variable_box():
    # maximize x s.t. x <= 1, x >= 0
    sol = solve(LpProblem([1.0], upper=[1.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_contradictory_bounds_infeasible():
    # x >= 2 and x <= 1
    sol = solve(LpProblem([1.0], a_ge=[[1.0]], b_ge=[2.0], upper=[1.0]))
    assert sol.status == "infeasible"
    assert sol.x is None


def test_unbounded():
    sol = solve(LpProblem([1.0, 0.0], a_ge=[[1.0, 1.0]], b_ge=[1.0]))
    assert sol.status == "unbounded"


@pytest.mark.parametrize("costs", [
    [5e-10], [-1.0, 5e-10], [1e-9], [-1.0, 1e-9], [2e-9], [0.0, -3.0, 1.5e-9], [1.0],
    [0.0], [-2.0, -1e-12],
])
def test_constraint_free_lps_match_the_oracle(costs):
    # x >= 0 only: optimal at x = 0 unless some cost exceeds COST_TOL
    problem = LpProblem(costs)
    status, value = oracle_solve(problem)
    sol = solve(problem)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective_value == value == 0.0
        assert np.array_equal(sol.x, np.zeros(len(costs)))
        assert sol.prices.size == 0 and sol.pivots == (0, 0)


def test_negative_rhs_rows():
    # -x1 - x2 >= -4 (i.e. x1 + x2 <= 4), maximize x1 + 2 x2
    sol = solve(LpProblem([1.0, 2.0], a_ge=[[-1.0, -1.0]], b_ge=[-4.0], upper=[3.0, 3.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(7.0, abs=1e-8)


def test_equality_constraint():
    # maximize x1 s.t. x1 + x2 = 1, x >= 0
    sol = solve(LpProblem([1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(0.0, abs=1e-9)


def test_simplex_constraint_stays_in_simplex():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = int(rng.integers(2, 6))
        c = rng.normal(size=t)
        sol = solve(LpProblem(c, a_eq=np.ones((1, t)), b_eq=[1.0]))
        assert sol.status == "optimal"
        assert np.all(sol.x >= -1e-9)
        assert sum(sol.x) == pytest.approx(1.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(c.max(), abs=1e-8)


def test_redundant_equalities():
    # duplicated equality row must not break phase 1 cleanup
    sol = solve(LpProblem([1.0, 0.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.dropped_rows == 1
    assert sol.pivots[0] >= 1 and not sol.bland


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(31337)
    checked = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(60):
        problem = random_lp(rng)
        want_status, want_value = oracle_solve(problem)
        sol = solve(problem)
        assert sol.status == want_status
        checked[want_status] += 1
        if want_status == "optimal":
            assert sol.objective_value == pytest.approx(want_value, abs=1e-6)
            res = residuals(problem, sol.x)
            assert res["ge"] <= 1e-7 and res["eq"] <= 1e-7
            assert res["lower"] <= 1e-9 and res["upper"] <= 1e-9
    # the generator must actually exercise all three statuses
    assert min(checked.values()) > 0


def test_deterministic_resolve():
    rng = np.random.default_rng(5)
    problem = random_lp(rng)
    first = solve(problem)
    second = solve(problem)
    assert first.status == second.status
    if first.status == "optimal":
        assert first.objective_value == second.objective_value
        assert np.array_equal(first.x, second.x)


def test_objective_consistent_with_x():
    rng = np.random.default_rng(11)
    for _ in range(25):
        problem = random_lp(rng)
        sol = solve(problem)
        if sol.status == "optimal":
            assert sol.objective_value == pytest.approx(float(problem.objective @ sol.x), abs=1e-9)


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        LpProblem([np.nan])
    with pytest.raises(ValueError):
        LpProblem([1.0], a_ge=[[np.inf]], b_ge=[0.0])
    with pytest.raises(ValueError):
        LpProblem([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[np.nan])
    with pytest.raises(ValueError):
        LpProblem([1.0], upper=[np.inf])


def test_rejects_bad_row_length():
    with pytest.raises(ValueError):
        LpProblem([1.0, 2.0], a_ge=[[1.0]], b_ge=[0.0])
    # one bound too many for the single inequality row
    with pytest.raises(ValueError):
        LpProblem([1.0, 2.0], a_ge=[[1.0, 1.0]], b_ge=[0.0, 1.0])
    # a 1-D equality block is not read as one row
    with pytest.raises(ValueError):
        LpProblem([1.0, 2.0], a_eq=[1.0, 1.0], b_eq=[1.0])
    with pytest.raises(ValueError):
        LpProblem([1.0, 2.0], a_ge=[[1.0, 1.0]])
    # every variable is x >= 0; there is no lower-bound argument to set
    with pytest.raises(TypeError):
        LpProblem([1.0], lower=[0.0])


def test_lower_residual_measures_nonnegativity():
    sol = solve(LpProblem([-1.0, -2.0], a_ge=[[1.0, 1.0]], b_ge=[-3.0]))
    assert sol.status == "optimal"
    assert np.array_equal(sol.x, [0.0, 0.0])
    assert residuals(LpProblem([1.0]), np.array([-0.5]))["lower"] == 0.5


def test_solution_counters_default_to_zero():
    sol = LpSolution("optimal", np.zeros(1), 0.0)
    assert sol.pivots == (0, 0) and not sol.bland and sol.dropped_rows == 0
    assert sol.refactors == 0
    assert sol.prices is None


def test_prices_are_optimal_dual_values():
    # max c.x s.t. A x >= b, x >= 0 has the dual min -b.y s.t. A'y <= -c,
    # y >= 0, whose optimum is the primal's; the prices are that y
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(60):
        drawn = random_lp(rng)
        problem = LpProblem(drawn.objective, a_ge=drawn.a_ge, b_ge=drawn.b_ge)
        sol = solve(problem)
        if not sol.optimal:
            continue
        checked += 1
        y = sol.prices
        assert y.shape == problem.b_ge.shape
        assert np.all(y >= -1e-9)
        assert np.all(problem.a_ge.T @ y <= -problem.objective + 1e-9)
        assert problem.b_ge @ y == pytest.approx(-sol.objective_value, abs=1e-9)
    assert checked >= 10
    assert solve(LpProblem([-1.0])).prices.shape == (0,)


def test_iteration_limit_names_phase_and_pivots():
    # one pivot is needed (x enters on its bound x <= 1), none is allowed
    lp = simplex._start(LpProblem([1.0], upper=[1.0]))
    lp.cost[0] = -1.0
    with pytest.raises(SimplexError, match="phase 2 iteration limit exceeded after 0 pivots"):
        simplex._run_simplex(lp, 0, phase=2)


def test_a_failed_refactor_names_phase_and_pivots(monkeypatch):
    # the basis is refactored before an "optimal" verdict is believed; a
    # LinAlgError there is a numerical breakdown of this solve
    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(SimplexError, match=r"phase 2 basis could not be refactored after 1 "
                                           r"pivots: Singular matrix"):
        solve(LpProblem([1.0], upper=[1.0]))
    with pytest.raises(SimplexError, match=r"phase 1 basis could not be refactored after 1 "
                                           r"pivots"):
        solve(LpProblem([1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bland_rules_match_their_definitions(seed):
    # small integer columns, so costs sit on both sides of the threshold
    # and minimum ratios tie exactly; the pivot tolerance, relative to a
    # column's largest entry, leaves every positive integer entry usable
    rng = np.random.default_rng(seed)
    m, width = int(rng.integers(1, 7)), int(rng.integers(2, 9))
    columns = rng.integers(-2, 3, size=(m, width)).astype(float)
    rhs = rng.integers(0, 4, size=m).astype(float)
    tol = simplex.COST_TOL
    costs = rng.choice([-1.0, -2 * tol, -tol, 0.0, 1.0], size=width)
    basis = rng.permutation(width + m)[:m]
    # entering: the lowest column whose reduced cost is below -COST_TOL
    want_col = next((j for j in range(width) if costs[j] < -tol), -1)
    assert simplex._bland_entering(costs) == want_col
    for col in range(width):
        # leaving: among the rows of minimum ratio, in exact arithmetic, the
        # one whose basic variable has the lowest index
        ratios = {i: Fraction(int(rhs[i]), int(columns[i, col]))
                  for i in range(m) if columns[i, col] > 0}
        want_row = -1
        if ratios:
            best = min(ratios.values())
            want_row = min((i for i, r in ratios.items() if r == best),
                           key=lambda i: basis[i])
        assert simplex._bland_leaving(columns[:, col], rhs, basis) == want_row


@settings(max_examples=100, deadline=None)
@given(costs=st.lists(st.sampled_from([-2.0, -1.0, -2e-9, -1e-9, 0.0, 1.0]), min_size=1,
                      max_size=9))
def test_dantzig_rule_takes_the_lowest_index_on_ties(costs):
    # the most negative reduced cost below -COST_TOL, the first of equals
    costs = np.array(costs)
    best = min(costs)
    want = costs.tolist().index(best) if best < -simplex.COST_TOL else -1
    assert simplex._dantzig_entering(costs) == want


def test_pivot_tolerance_is_relative_to_the_column():
    # 1e-10 clears the absolute PIVOT_TOL but not 1e-9 of the column's
    # largest entry, so neither rule pivots on it however small its ratio
    column = np.array([1e-10, 1e3])
    rhs = np.array([0.0, 5.0])
    assert simplex._harris_leaving(column, rhs) == 1
    assert simplex._bland_leaving(column, rhs, np.array([0, 1])) == 1
    assert simplex._harris_leaving(np.array([1e-10, 0.0]), rhs) == 0
    assert simplex._harris_leaving(np.array([1e-12, -1.0]), rhs) == -1


def _identity_error(lp):
    # ||B^-1 B - I|| in the infinity norm, B from the basis columns
    mat = lp.basis_matrix()
    if not mat.size:
        return 0.0
    return float(np.linalg.norm(lp.binv @ mat - np.eye(mat.shape[0]), np.inf))


def _revised_trace(problem, every_pivot=True):
    # the solution, each pivot's (row, entering column) and the worst
    # ||B^-1 B - I|| seen after any pivot (or, if not every_pivot, just
    # before each refactor, where the updates have drifted most) and after
    # any refactor
    steps, worst = [], [0.0]
    pivot, rebuild = simplex._Basis.pivot, simplex._Basis.rebuild

    def traced_pivot(lp, r, q, alpha):
        steps.append((r, q))
        pivot(lp, r, q, alpha)
        if every_pivot:
            worst[0] = max(worst[0], _identity_error(lp))

    def traced_rebuild(lp):
        worst[0] = max(worst[0], _identity_error(lp))
        rebuild(lp)
        worst[0] = max(worst[0], _identity_error(lp))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex._Basis, "pivot", traced_pivot)
        mp.setattr(simplex._Basis, "rebuild", traced_rebuild)
        sol = solve(problem)
    return sol, steps, worst[0]


def _dense_trace(problem):
    # the reference's solution, its pivots and whether every choice it
    # made cleared its rule's threshold and its runner-up by a margin far
    # above rounding: those choices the revised engine must repeat
    steps, clear = [], [True]

    def near(value, edge):
        return abs(value - edge) <= 1e-7 * (1.0 + abs(edge))

    def entering(rule):
        def spy(costs):
            col = rule(costs)
            if np.any((costs < -1e-11) & (costs > -1e-7)):
                clear[0] = False
            if col >= 0 and costs.size > 1 and near(np.partition(costs, 1)[1], costs[col]):
                clear[0] = False
            return col
        return spy

    def leaving(tableau, col):
        column, rhs = tableau[:-1, col], tableau[:-1, -1]
        if np.any((np.abs(column) > 1e-13) & (np.abs(column) < 1e-7)):
            clear[0] = False
        row = harris(tableau, col)
        usable = column > simplex.PIVOT_TOL
        if row >= 0:
            ratios = rhs[usable] / column[usable]
            best = ratios.min()
            window = ratios <= best + 1e-9 * (1.0 + abs(best))
            # candidates tie exactly, the rest sit well outside the window,
            # and the largest candidate entry has no runner-up close by
            if np.any(window & (ratios > best + 1e-12 * (1.0 + abs(best)))):
                clear[0] = False
            if np.any(~window & near(ratios, best)):
                clear[0] = False
            entries = np.sort(column[usable][window])
            if entries.size > 1 and near(entries[-2], entries[-1]):
                clear[0] = False
        return row

    def pivot(tableau, work, basis, row, col):
        steps.append((row, col))
        dense_pivot(tableau, work, basis, row, col)

    def run(tableau, work, basis, max_iter, phase):
        status, pivots, bland = dense_run(tableau, work, basis, max_iter, phase)
        if bland:
            clear[0] = False
        runs.append(pivots)
        return status, pivots, bland

    harris, dense_pivot, dense_run = (pivot_oracle._harris_leaving, pivot_oracle._pivot,
                                      pivot_oracle._run_simplex)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pivot_oracle, "_dantzig_entering", entering(pivot_oracle._dantzig_entering))
        mp.setattr(pivot_oracle, "_harris_leaving", leaving)
        mp.setattr(pivot_oracle, "_pivot", pivot)
        mp.setattr(pivot_oracle, "_run_simplex", run)
        try:
            sol = pivot_oracle.solve(problem)
        except SimplexError:
            sol = None
    # drive-out pivots follow another rule, which this check does not cover
    if sum(runs) != len(steps):
        clear[0] = False
    return sol, steps, clear[0]


def _same_start(problem):
    # the reference starts a ge row with a zero bound on an artificial, the
    # revised engine on its surplus; otherwise both start on one basis
    return not np.any(problem.b_ge == 0.0)


def _assert_agrees(problem):
    # status and objective as the reference's, B^-1 B = I throughout, and
    # on a draw both start alike and the reference ran free of near-ties,
    # its pivots exactly; returns whether the pivots were compared
    sol, steps, worst = _revised_trace(problem)
    want, want_steps, clear = _dense_trace(problem)
    assert want is not None
    assert sol.status == want.status
    if want.optimal:
        assert sol.objective_value == pytest.approx(want.objective_value, rel=1e-9, abs=1e-9)
        res = residuals(problem, sol.x)
        assert res["ge"] <= 1e-9 and res["eq"] <= 1e-9
        assert res["lower"] == 0.0 and res["upper"] == 0.0
    assert worst <= 1e-9
    compared = clear and _same_start(problem)
    if compared:
        assert steps == want_steps
        assert sol.pivots == want.pivots and sol.bland == want.bland
    return compared


def _rescaled(problem, rng):
    # the same feasible set with non-integer rows, so rounding shows
    scale = rng.uniform(0.3, 3.0, size=problem.b_ge.size)
    return LpProblem(problem.objective * rng.uniform(0.3, 3.0),
                     a_ge=problem.a_ge * scale[:, None], b_ge=problem.b_ge * scale,
                     a_eq=problem.a_eq, b_eq=problem.b_eq, upper=problem.upper)


def test_a_cycling_lp_switches_to_bland():
    # Hall & McKinnon's 2 x 4 example, max c.x s.t. A x <= 0, cycles under
    # the largest-coefficient rule with a unique ratio test at every pivot.
    # A first pivot, z entering on its bound z <= 1, puts the solver at its
    # degenerate origin on the slack basis: A x + g z <= g becomes A x <= 0
    c = np.array([2.3, 2.15, -13.55, -0.4])
    a = np.array([[0.4, 0.2, -1.4, -0.2], [-7.8, -1.4, 7.8, 0.4]])
    g = np.array([0.5, 0.5])
    problem = LpProblem(np.append(c, 10.0), a_ge=-np.hstack([a, g[:, None]]), b_ge=-g,
                        upper=[4.0, 4.0, 4.0, 4.0, 1.0])
    sol, steps, worst = _revised_trace(problem)
    assert sol.optimal and sol.bland
    # the stall limit, 200 + 2 per row, passes before Bland's rule ends it,
    # and the basis is refactored along the way
    assert sol.pivots[0] == 0 and sol.pivots[1] > 200 + 2 * 7
    assert sol.refactors >= sol.pivots[1] // simplex.REBUILD_EVERY
    assert worst <= 1e-9
    status, value = oracle_solve(problem)
    assert status == "optimal"
    assert sol.objective_value == pytest.approx(value, abs=1e-9)
    want, want_steps, _ = _dense_trace(problem)
    assert steps == want_steps and sol.pivots == want.pivots


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rescale=st.booleans())
def test_pivots_match_dense_reference_on_random_lps(seed, rescale):
    rng = np.random.default_rng(seed)
    problem = random_lp(rng)
    if rescale:
        problem = _rescaled(problem, rng)
    _assert_agrees(problem)


def test_pivot_comparison_covers_most_random_lps():
    # the pivot sequences are compared on a draw only when it is free of
    # near-ties and both engines start alike; that must be most draws
    rng = np.random.default_rng(2024)
    compared = 0
    for k in range(200):
        problem = random_lp(rng)
        compared += _assert_agrees(_rescaled(problem, rng) if k % 2 else problem)
    assert compared >= 100


def _phase1_start(problem):
    # the revised engine's reduced costs as phase 1 begins, and the
    # reference's phase-1 cost row over the same columns
    rows = {}

    def spy(key, run):
        def wrapped(state, *args, **kwargs):
            if kwargs.get("phase") == 1:
                rows[key] = state.price().copy() if key == "solver" else state[-1, :-1].copy()
            return run(state, *args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_run_simplex", spy("solver", simplex._run_simplex))
        mp.setattr(pivot_oracle, "_run_simplex", spy("dense", pivot_oracle._run_simplex))
        for solver in (solve, pivot_oracle.solve):
            try:
                solver(problem)
            except SimplexError:
                pass
    return rows.get("solver"), rows.get("dense")


def _exact_phase1_costs(problem):
    # minus the sum of the rows that start on an artificial, each signed so
    # its bound is nonnegative, summed exactly (fsum) over every structural
    # and slack column; also the sum of the terms' magnitudes per column
    n, k_ge = problem.n_vars, problem.b_ge.size
    upper = np.zeros(0) if problem.upper is None else problem.upper
    a = np.vstack([problem.a_ge, problem.a_eq] + ([np.eye(n)] if upper.size else []))
    b = np.concatenate([problem.b_ge, problem.b_eq, upper])
    sign = np.concatenate([np.full(k_ge, -1.0), np.zeros(problem.b_eq.size),
                           np.ones(upper.size)])
    art = [i for i in range(b.size) if not (sign[i] and sign[i] * b[i] >= 0)]
    flip = {i: (-1.0 if b[i] < 0 else 1.0) for i in art}
    slack = np.flatnonzero(sign)
    exact = [-math.fsum(flip[i] * a[i, j] for i in art) for j in range(n)]
    exact += [-flip[i] * sign[i] if i in flip else 0.0 for i in slack]
    scale = [sum(abs(a[i, j]) for i in art) for j in range(n)] + [1.0] * slack.size
    return np.array(exact), np.array(scale), len(art)


def _tying_lp(rng):
    # ge rows whose sums differ in the last bit when added in another order
    # (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1), each with an artificial
    k = int(rng.integers(3, 7))
    a_ge = rng.choice([0.1, 0.2, 0.3, 0.7], size=(k, 3))
    b_ge = rng.choice([0.1, 0.2, 0.3, 0.7], size=k)
    return LpProblem(rng.normal(size=3), a_ge=a_ge, b_ge=b_ge, upper=np.full(3, 9.0))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tying=st.booleans())
def test_phase1_cost_row_matches_dense_reference(seed, tying):
    # both engines price phase 1 as minus the sum of the artificial rows,
    # within the rounding of a sum of that many terms; the revised engine
    # adds them in the BLAS product's order, the reference in row order
    rng = np.random.default_rng(seed)
    problem = _tying_lp(rng) if tying else _rescaled(random_lp(rng), rng)
    got, dense = _phase1_start(problem)
    exact, scale, k = _exact_phase1_costs(problem)
    if not k:
        assert got is None  # every row starts on its slack: no phase 1
        return
    tol = 2 * k * np.finfo(float).eps * scale
    assert np.all(np.abs(got - exact) <= tol)
    if _same_start(problem):
        assert np.all(np.abs(dense[:got.size] - exact) <= tol)


def test_phase1_cost_row_sums_artificial_rows_in_row_order():
    # column 0 and the rhs sum 0.1, 0.2, 0.3: reversed, the last bit
    # differs.  The reference subtracts the artificial rows one at a time
    # in row order; the revised engine's sum is within rounding of exact
    problem = LpProblem([1.0, 1.0, 1.0], a_ge=[[0.1, 0.3, 0.2], [0.2, 0.2, 0.1], [0.3, 0.1, 0.7]],
                        b_ge=[0.1, 0.2, 0.3])
    got, dense = _phase1_start(problem)
    rows = [[0.1, 0.3, 0.2, -1.0, 0.0, 0.0], [0.2, 0.2, 0.1, 0.0, -1.0, 0.0],
            [0.3, 0.1, 0.7, 0.0, 0.0, -1.0]]
    in_order = [0.0] * 6
    for row in rows:
        in_order = [v - r for v, r in zip(in_order, row)]
    assert dense.tobytes() == np.array(in_order).tobytes()
    exact, scale, k = _exact_phase1_costs(problem)
    assert k == 3
    assert np.all(np.abs(got - exact) <= 2 * k * np.finfo(float).eps * scale)


def _margin_problem(matrix, emphasis, floors, form="primal", eq_rows=1):
    # the margin LP, max c.w s.t. S'w >= floors, 1.w = 1, w >= 0 with S the
    # (T, n) signed votes, in primal form (eq_rows > 1 repeats the simplex
    # row) or as the dual that reweight._margin_lp solves: max floors.u - v
    # s.t. -S u + v 1 >= c, u >= 0, with v = max(c) + v+ - v-, so its rhs is
    # c - max(c) <= 0 and every row starts on its surplus
    signed = matrix.entries
    c = signed @ emphasis
    if form == "dual":
        ones = np.ones((matrix.n_learners, 1))
        return LpProblem(np.concatenate([floors, [-1.0, 1.0]]),
                         a_ge=np.hstack([-signed, ones, -ones]), b_ge=c - c.max())
    return LpProblem(c, a_ge=signed.T, b_ge=floors,
                     a_eq=np.ones((eq_rows, matrix.n_learners)), b_eq=np.ones(eq_rows))


def _bench_margin_lp(make, n, T, seed, scheme, form="primal", eq_rows=1):
    data = make(0)
    rows = np.sort(np.random.default_rng(seed).permutation(data.n_rows)[:n])
    train = data.take(rows)
    model = adaboost(train, T, TreeParams(max_depth=2, max_leaves=4))
    matrix = prediction_matrix(model, train)
    old = compute_margins(matrix, model.vote_weights)
    if scheme == "sm1":
        floors = np.where(old.margins <= old.mean, old.percentile(0.05), old.mean)
        emphasis = np.ones(n)
    else:
        floors = old.margins
        emphasis = np.array(emphasis_oracle.emphasis(scheme, old.margins, xi=0.2))
    return _margin_problem(matrix, emphasis, floors, form, eq_rows)


@settings(max_examples=40, deadline=None)
@given(make=st.sampled_from([sonar_like, ionosphere_like, pima_like]),
       n=st.integers(20, 90), T=st.integers(2, 25), seed=st.integers(0, 2**32 - 1),
       scheme=st.sampled_from(["uws", "pws", "sm1"]),
       form=st.sampled_from(["primal", "dual"]))
def test_pivots_match_dense_reference_on_margin_lps(make, n, T, seed, scheme, form):
    problem = _bench_margin_lp(make, n, T, seed, scheme, form)
    _assert_agrees(problem)
    if form == "dual":
        assert solve(problem).pivots[0] == 0


@pytest.mark.parametrize("scheme", ["uws", "pws", "sm1"])
def test_dual_margin_lp_prices_solve_the_primal(scheme):
    primal = _bench_margin_lp(pima_like, 80, 15, 2, scheme)
    dual = _bench_margin_lp(pima_like, 80, 15, 2, scheme, form="dual")
    want, got = solve(primal), solve(dual)
    if want.status == "infeasible":
        assert got.status == "unbounded"
        return
    assert want.optimal and got.optimal
    w = np.clip(got.prices, 0.0, None)
    assert max(residuals(primal, w).values()) <= 1e-9
    assert primal.objective @ w == pytest.approx(want.objective_value, abs=1e-9)
    # the dual's rhs is shifted by max(c), which moves its objective by -max(c)
    top = primal.objective.max()
    assert got.objective_value - top == pytest.approx(-want.objective_value, abs=1e-9)


def test_pivots_match_dense_reference_when_a_row_is_dropped():
    problem = _bench_margin_lp(pima_like, 60, 12, 4, "uws", eq_rows=2)
    _assert_agrees(problem)
    got, want = solve(problem), pivot_oracle.solve(problem)
    assert got.optimal and got.dropped_rows == want.dropped_rows == 1


def test_margin_lp_solves_are_byte_identical():
    # the same LP, solved twice and again from operands that sit one
    # element into a fresh buffer, gives the same bytes
    problem = _bench_margin_lp(pima_like, 538, 100, 0, "uws", form="dual")

    def shifted(a):
        buffer = np.empty(a.size + 1)
        out = buffer[1:].reshape(a.shape)
        out[...] = a
        return out

    moved = LpProblem(shifted(problem.objective), a_ge=shifted(problem.a_ge),
                      b_ge=shifted(problem.b_ge))

    def fingerprint(sol):
        return (sol.status, sol.x.tobytes(), sol.prices.tobytes(), sol.objective_value,
                sol.pivots, sol.bland, sol.dropped_rows, sol.refactors)

    first = fingerprint(solve(problem))
    assert first[0] == "optimal" and first[7] >= 2
    assert fingerprint(solve(problem)) == first
    assert fingerprint(solve(moved)) == first


def test_refactors_keep_a_large_degenerate_ensemble_exact():
    # T = 300 learners over 1,200 rows: AdaBoost's 100 depth-3 trees (76
    # distinct), an exact copy of each and its negation, so the dual has
    # many equal and opposite rows and runs long enough (235 pivots) to
    # refactor its basis several times
    data = generate_synthetic("two-gaussians", 1200, 1.2, 11)
    model = adaboost(data, 100, TreeParams(max_depth=3, max_leaves=8))
    base = prediction_matrix(model, data)
    matrix = PredictionMatrix(np.vstack([base.entries, base.entries, -base.entries]),
                              base.labels)
    old = compute_margins(matrix, np.concatenate([model.vote_weights, np.zeros(200)]))
    emphasis = np.ones(matrix.n_rows)
    problem = _margin_problem(matrix, emphasis, old.margins, form="dual")
    sol, _, worst = _revised_trace(problem, every_pivot=False)
    want = pivot_oracle.solve(problem)
    assert sol.status == want.status == "optimal"
    assert sol.objective_value == pytest.approx(want.objective_value, rel=1e-9)
    assert sol.refactors >= 3 and sol.pivots[0] == 0
    assert worst <= 1e-9
    primal = _margin_problem(matrix, emphasis, old.margins)
    assert max(residuals(primal, np.clip(sol.prices, 0.0, None)).values()) <= 1e-9
