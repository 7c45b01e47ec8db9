from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margin_forge import simplex
from margin_forge.cart import TreeParams
from margin_forge.ensemble import adaboost, prediction_matrix
from margin_forge.margins import compute_margins
from margin_forge.simplex import LpProblem, LpSolution, SimplexError, residuals, solve

import emphasis_oracle
import pivot_oracle
from bench_data import ionosphere_like, pima_like, sonar_like
from lp_oracle import oracle_solve, random_lp


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
    # one pivot is needed (x enters), none is allowed
    tableau = np.asfortranarray([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]])
    with pytest.raises(SimplexError, match="phase 2 iteration limit exceeded after 0 pivots"):
        simplex._run_simplex(tableau, simplex._work(tableau), [1], 0, phase=2)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bland_rules_match_their_definitions(seed):
    # small integer tableaus, so costs sit on both sides of the threshold
    # and minimum ratios tie exactly
    rng = np.random.default_rng(seed)
    m, width = int(rng.integers(1, 7)), int(rng.integers(2, 9))
    tableau = np.asfortranarray(rng.integers(-2, 3, size=(m + 1, width + 1)).astype(float))
    tableau[:-1, -1] = rng.integers(0, 4, size=m)
    tol = simplex.COST_TOL
    tableau[-1, :-1] = rng.choice([-1.0, -2 * tol, -tol, 0.0, 1.0], size=width)
    basis = rng.permutation(width + m)[:m].tolist()
    costs = tableau[-1, :-1]
    # entering: the lowest column whose reduced cost is below -COST_TOL
    want_col = next((j for j in range(width) if costs[j] < -tol), -1)
    assert simplex._bland_entering(costs) == want_col
    for col in range(width):
        # leaving: among the rows of minimum ratio, in exact arithmetic, the
        # one whose basic variable has the lowest index
        ratios = {i: Fraction(int(tableau[i, -1]), int(tableau[i, col]))
                  for i in range(m) if tableau[i, col] > 0}
        want_row = -1
        if ratios:
            best = min(ratios.values())
            want_row = min((i for i, r in ratios.items() if r == best),
                           key=lambda i: basis[i])
        assert simplex._bland_leaving(tableau, basis, col) == want_row


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
    sol = solve(problem)
    assert sol.optimal and sol.bland
    # the stall limit, 200 + 2 per row, passes before Bland's rule ends it
    assert sol.pivots[0] == 0 and sol.pivots[1] > 200 + 2 * 7
    status, value = oracle_solve(problem)
    assert status == "optimal"
    assert sol.objective_value == pytest.approx(value, abs=1e-9)
    assert _outcome(solve, problem) == _outcome(pivot_oracle.solve, problem)


def _outcome(solver, problem):
    # everything a solve reports, in bytes where it is a vector
    try:
        sol = solver(problem)
    except SimplexError:
        return "SimplexError"
    x = None if sol.x is None else sol.x.tobytes()
    prices = None if sol.prices is None else sol.prices.tobytes()
    return (sol.status, x, prices, sol.objective_value, sol.pivots, sol.bland,
            sol.dropped_rows)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rescale=st.booleans())
def test_pivots_match_dense_reference_on_random_lps(seed, rescale):
    rng = np.random.default_rng(seed)
    problem = random_lp(rng)
    if rescale:
        # the same feasible set with non-integer rows, so rounding shows
        scale = rng.uniform(0.3, 3.0, size=problem.b_ge.size)
        problem = LpProblem(problem.objective * rng.uniform(0.3, 3.0),
                            a_ge=problem.a_ge * scale[:, None], b_ge=problem.b_ge * scale,
                            a_eq=problem.a_eq, b_eq=problem.b_eq, upper=problem.upper)
    assert _outcome(solve, problem) == _outcome(pivot_oracle.solve, problem)


def _phase1_cost_rows(problem):
    # the cost row each solver enters phase 1 with, caught on its way into
    # the pivot loop; the reference's artificial columns are priced to zero
    # and left out, since the solver stores none
    rows = {}

    def spy(key, run):
        def wrapped(tableau, *args, **kwargs):
            rows.setdefault(key, tableau[-1, :].copy())
            return run(tableau, *args, **kwargs)
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_run_simplex", spy("solver", simplex._run_simplex))
        mp.setattr(pivot_oracle, "_run_simplex", spy("dense", pivot_oracle._run_simplex))
        for solver in (solve, pivot_oracle.solve):
            try:
                solver(problem)
            except SimplexError:
                pass
    got, dense = rows["solver"], rows["dense"]
    assert not np.any(dense[got.size - 1:-1])
    return got, np.concatenate([dense[:got.size - 1], dense[-1:]])


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
    rng = np.random.default_rng(seed)
    if tying:
        problem = _tying_lp(rng)
    else:
        problem = random_lp(rng)
        scale = rng.uniform(0.3, 3.0, size=problem.b_ge.size)
        problem = LpProblem(problem.objective, a_ge=problem.a_ge * scale[:, None],
                            b_ge=problem.b_ge * scale, a_eq=problem.a_eq,
                            b_eq=problem.b_eq, upper=problem.upper)
    if not np.any(problem.b_ge >= 0) and not problem.b_eq.size:
        return  # every row starts on its slack: no phase 1
    got, dense = _phase1_cost_rows(problem)
    assert got.tobytes() == dense.tobytes()


def test_phase1_cost_row_sums_artificial_rows_in_row_order():
    # column 0 and the rhs sum 0.1, 0.2, 0.3: reversed, the last bit differs
    problem = LpProblem([1.0, 1.0, 1.0], a_ge=[[0.1, 0.3, 0.2], [0.2, 0.2, 0.1], [0.3, 0.1, 0.7]],
                        b_ge=[0.1, 0.2, 0.3])
    got, dense = _phase1_cost_rows(problem)
    assert got.tobytes() == dense.tobytes()


def _margin_problem(matrix, emphasis, floors, form="primal", eq_rows=1):
    # the margin LP, max c.w s.t. S'w >= floors, 1.w = 1, w >= 0 with S the
    # (T, n) signed votes, in primal form (eq_rows > 1 repeats the simplex
    # row) or as the dual that reweight._margin_lp solves: max floors.u - v
    # s.t. -S u + v 1 >= c, u >= 0, with v = max(c) + v+ - v-, so its rhs is
    # c - max(c) and only the rows tied at the maximum start on an artificial
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
    assert _outcome(solve, problem) == _outcome(pivot_oracle.solve, problem)


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
    got = _outcome(solve, problem)
    assert got == _outcome(pivot_oracle.solve, problem)
    assert got[0] == "optimal" and got[6] == 1
