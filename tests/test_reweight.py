import numpy as np
import pytest

from margin_forge import reweight
from margin_forge.dataset_io import generate_synthetic
from margin_forge.ensemble import (
    EnsembleError, PredictionMatrix, adaboost, prediction_matrix, random_forest,
)
from margin_forge.margins import compute_margins
from margin_forge.reweight import (
    RewSpec, apply_scheme, ews_r, mm_weights, parse_spec, pws_r, sm1_weights,
    sm2_weights, uws_r,
)
from margin_forge.cart import TreeParams
from margin_forge.harness import ExperimentConfig, run_experiment
from margin_forge.simplex import LpSolution, SimplexError
from bench_data import pima_like
from simplex_grid_oracle import grid_best


def matrix_of(entries, labels):
    # one literal row of raw votes per observation; the matrix stores one
    # row of signed votes per learner
    y = np.array(labels, dtype=float)
    return PredictionMatrix(np.array(entries, dtype=float).T * y, y)


def small_forest(n=40, T=10, seed=3):
    data = generate_synthetic("two-gaussians", n, 1.6, seed)
    model = random_forest(data, T=T, seed=seed)
    return prediction_matrix(model, data), model.vote_weights


def random_instance(rng, n, T):
    h = np.where(rng.random((n, T)) < 0.5, -1.0, 1.0)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    alpha = rng.random(T) + 0.1
    alpha /= alpha.sum()
    return matrix_of(h, y), alpha


def test_parse_spec_forms():
    assert parse_spec("uws") == RewSpec("uws")
    assert parse_spec("ews") == RewSpec("ews", k=5)
    assert parse_spec("ews:3") == RewSpec("ews", k=3)
    assert parse_spec("pws:0.2") == RewSpec("pws", xi=0.2)
    assert parse_spec("sm1") == RewSpec("sm1", xi=0.05)
    assert parse_spec("sm1:0.5") == RewSpec("sm1", xi=0.5)
    assert parse_spec("sm2") == RewSpec("sm2")
    assert parse_spec("ews:3").label == "ews:3"
    assert parse_spec("pws:0.05").label == "pws:0.05"
    for bad in ("uws:1", "pws", "mystery", "ews:0", "pws:1.5", "sm1:0"):
        with pytest.raises(ValueError):
            parse_spec(bad)
    with pytest.raises(ValueError, match="sm2 takes no parameter"):
        parse_spec("sm2:0.9")


def test_emphasis_vectors():
    assert uws_r(3).tolist() == [1.0, 1.0, 1.0]
    assert ews_r([0.1, 0.5, 0.9], k=1).tolist() == [3.0, 2.0, 1.0]
    assert ews_r([0.1, 0.5, 0.9], k=2).tolist() == [9.0, 4.0, 1.0]
    # smallest margin of n rows gets n^k
    r = ews_r(np.linspace(-1, 1, 208), k=5)
    assert r.max() == 208.0 ** 5
    assert pws_r(np.linspace(0, 1, 10), 0.10).sum() == 1.0
    assert pws_r(np.linspace(0, 1, 10), 0.10)[0] == 1.0


def test_pws_full_proportion_equals_uws():
    m = np.array([0.3, -0.1, 0.5, 0.2])
    assert np.array_equal(pws_r(m, 0.9999), uws_r(4))


def test_rank_ties_resolve_by_index():
    r = ews_r([0.5, 0.5, 0.1], k=1)
    # ranks: the 0.1 gets 1; the tied 0.5s get 2 then 3 by position
    assert r.tolist() == [2.0, 1.0, 3.0]
    ind = pws_r([0.2, 0.2, 0.2, 0.9], 0.5)  # k=2, tie at 0.2
    assert ind.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_ews_strictly_decreasing_over_distinct_ranks():
    rng = np.random.default_rng(0)
    m = rng.uniform(-1, 1, 12)
    r = ews_r(m, k=5)
    order = np.argsort(m, kind="stable")
    assert np.all(np.diff(r[order]) < 0)


def test_mm_single_learner_is_identity():
    m = matrix_of([[1], [-1], [1]], [1, 1, -1])
    result = mm_weights(m, [1.0], uws_r(3))
    assert result.weights.tolist() == [1.0]
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    assert np.array_equal(result.new_profile.margins, result.old_profile.margins)


def test_mm_never_lowers_a_margin():
    matrix, alpha = small_forest()
    for r in (uws_r(matrix.n_rows), ews_r(compute_margins(matrix, alpha).margins, 5),
              pws_r(compute_margins(matrix, alpha).margins, 0.2)):
        result = mm_weights(matrix, alpha, r)
        assert result.feasible
        assert np.all(result.new_profile.margins >= result.old_profile.margins - 1e-7)
        assert result.objective >= -1e-9
        w = result.weights
        assert np.all(w >= -1e-9) and w.sum() == pytest.approx(1.0, abs=1e-9)


def test_mm_keeps_alpha_when_the_lp_does_not_beat_it(monkeypatch):
    # an answer that scores below alpha under r is rounding noise: alpha,
    # which meets every floor, is kept and the objective is exactly 0
    matrix, alpha = small_forest(n=30, T=8, seed=5)
    r = uws_r(matrix.n_rows)
    worse = np.zeros(matrix.n_learners)
    worse[np.argmin(matrix.entries @ r)] = 1.0
    old = compute_margins(matrix, alpha)
    assert r @ (compute_margins(matrix, worse).margins - old.margins) < 0
    monkeypatch.setattr(reweight, "_margin_lp", lambda *args: worse)
    result = mm_weights(matrix, alpha, r)
    assert np.array_equal(result.weights, alpha)
    assert result.objective == 0.0
    assert np.array_equal(result.new_profile.margins, old.margins)


def test_mm_objective_identity():
    matrix, alpha = small_forest(n=30, T=8, seed=5)
    old = compute_margins(matrix, alpha)
    r = ews_r(old.margins, 3)
    result = mm_weights(matrix, alpha, r)
    by_hand = float(r @ (result.new_profile.margins - old.margins))
    assert result.objective == pytest.approx(by_hand, abs=1e-7)


def test_mm_emphasis_scale_invariance():
    matrix, alpha = small_forest(n=25, T=6, seed=8)
    r = uws_r(matrix.n_rows)
    a = mm_weights(matrix, alpha, r)
    b = mm_weights(matrix, alpha, 10.0 * r)
    assert np.allclose(a.new_profile.margins, b.new_profile.margins, atol=1e-7)
    assert b.objective == pytest.approx(10.0 * a.objective, abs=1e-6)


def test_mm_matches_grid_oracle():
    # the polytope can be too thin for any exact grid point; such draws are
    # skipped, and enough must remain for the comparison to mean something
    rng = np.random.default_rng(11)
    usable = 0
    for _ in range(25):
        n = int(rng.integers(3, 7))
        T = int(rng.integers(2, 4))
        matrix, alpha = random_instance(rng, n, T)
        old = compute_margins(matrix, alpha)
        r = [uws_r(n), ews_r(old.margins, 2), pws_r(old.margins, 0.4)][usable % 3]
        scaled = r / r.max()
        result = mm_weights(matrix, alpha, r)
        lp_value = float(scaled @ (result.new_profile.margins - old.margins))
        signed = matrix.entries.T
        best, _ = grid_best(signed, old.margins, scaled, old.margins)
        if best is None:
            continue
        usable += 1
        assert lp_value >= best - 1e-9   # no grid point may beat the optimum
        assert lp_value == pytest.approx(best, abs=2e-3)
    assert usable >= 8


def test_sm1_uniform_margins_trivially_feasible():
    # every learner wrong on the same single point: all margins equal
    m = matrix_of([[1, 1], [1, 1], [-1, -1]], [1, 1, -1])
    # margins all +1 except the last which is... h=-1,y=-1 -> correct, +1 too
    result = sm1_weights(m, [0.5, 0.5], xi=0.5)
    assert result.feasible
    assert np.all(result.new_profile.margins >= result.old_profile.margins - 1e-7)


def test_sm1_floor_contract_when_feasible():
    matrix, alpha = small_forest(n=50, T=20, seed=2)
    result = sm1_weights(matrix, alpha, xi=0.1)
    assert result.feasible
    old = result.old_profile
    mean = old.mean
    theta = old.percentile(0.1)
    new = result.new_profile.margins
    low = old.margins <= mean
    assert np.all(new[low] >= theta - 1e-7)
    assert np.all(new[~low] >= mean - 1e-7)
    w = result.weights
    assert np.all(w >= -1e-9) and w.sum() == pytest.approx(1.0, abs=1e-9)


def test_sm1_reports_infeasible_without_raising():
    # one observation every learner gets wrong pins its margin at -1,
    # while the rest sit high; lifting the low half to the median is hopeless
    m = matrix_of([[-1, -1], [1, 1], [1, 1], [1, 1]], [1, 1, 1, 1])
    result = sm1_weights(m, [0.5, 0.5], xi=0.5)
    assert not result.feasible
    assert result.weights is None and result.new_profile is None
    assert result.old_profile is not None  # diagnostics still available


def test_sm1_matches_grid_oracle_on_feasibility():
    rng = np.random.default_rng(17)
    seen_feasible = False
    for _ in range(12):
        n = int(rng.integers(3, 7))
        T = int(rng.integers(2, 4))
        matrix, alpha = random_instance(rng, n, T)
        old = compute_margins(matrix, alpha)
        theta = old.percentile(0.3)
        floors = np.where(old.margins <= old.mean, theta, old.mean)
        signed = matrix.entries.T
        best, _ = grid_best(signed, floors, np.ones(n), old.margins)
        result = sm1_weights(matrix, alpha, xi=0.3)
        if best is not None:
            # a feasible grid point proves the LP is feasible
            assert result.feasible
            assert result.objective >= best - 1e-9
            assert result.objective == pytest.approx(best, abs=2e-3)
            seen_feasible = True
    assert seen_feasible


_MARGIN_LP_SCHEMES = pytest.mark.parametrize("scheme", [
    lambda matrix, alpha: mm_weights(matrix, alpha, uws_r(matrix.n_rows)),
    lambda matrix, alpha: sm1_weights(matrix, alpha, xi=0.5),
], ids=["mm", "sm1"])


def _dual_answer(prices, value_offset=0.0):
    # an optimal answer of the dual margin LP with the given prices (the
    # weights); its objective is minus the primal's at those weights, which
    # is what a zero duality gap means, plus an offset
    prices = np.asarray(prices, dtype=float)

    def answer(problem):
        value = -float(problem.b_ge @ prices) + value_offset
        return LpSolution("optimal", np.zeros(problem.n_vars), value, prices=prices)
    return answer


@_MARGIN_LP_SCHEMES
def test_margin_lp_rejects_an_answer_below_a_floor(monkeypatch, scheme):
    # learner 0 misses row 0 and learner 1 hits both rows; all the weight on
    # learner 0 drops row 0's margin from 0 to -1, below its floor in both LPs
    matrix = matrix_of([[-1, 1], [1, 1]], [1, 1])
    monkeypatch.setattr(reweight, "solve", _dual_answer([1.0, 0.0]))
    with pytest.raises(SimplexError, match="ge constraints"):
        scheme(matrix, np.array([0.5, 0.5]))


@_MARGIN_LP_SCHEMES
def test_margin_lp_rejects_an_answer_with_a_duality_gap(monkeypatch, scheme):
    # all the weight on learner 1 lifts both margins to 1, above every
    # floor, but the reported dual objective is off by 1e-6
    matrix = matrix_of([[-1, 1], [1, 1]], [1, 1])
    monkeypatch.setattr(reweight, "solve", _dual_answer([0.0, 1.0], 1e-6))
    with pytest.raises(SimplexError, match="duality gap"):
        scheme(matrix, np.array([0.5, 0.5]))
    monkeypatch.setattr(reweight, "solve", _dual_answer([0.0, 1.0]))
    assert scheme(matrix, np.array([0.5, 0.5])).weights.tolist() == [0.0, 1.0]


def test_margin_lp_reports_a_dual_failure(monkeypatch):
    monkeypatch.setattr(reweight, "solve", lambda problem: LpSolution("infeasible", None, None))
    with pytest.raises(SimplexError, match="dual ended infeasible"):
        sm1_weights(matrix_of([[-1, 1], [1, 1]], [1, 1]), [0.5, 0.5])


def test_margin_lps_of_a_drifting_seed_finish():
    # the pws:0.05 LP of simulation 1 drove the primal's phase 2 into its
    # iteration limit; every LP of this run must now end optimal or, for
    # sm1, reported infeasible, and no mm margin may drop
    config = ExperimentConfig(
        dataset=pima_like(), schemes=tuple(parse_spec(s) for s in ("uws", "pws:0.05", "sm1")),
        n_trees=100, tree_params=TreeParams(max_depth=2, max_leaves=4), simulations=2,
        seed=2768950738)
    report = run_experiment(config)
    assert [r.failure for r in report.records] == [None, None]
    for record in report.records:
        assert record.min_improvements["uws"] >= -1e-7
        assert record.min_improvements["pws:0.05"] >= -1e-7


def test_margin_lp_dual_starts_on_a_feasible_basis(monkeypatch):
    # u = 0, v = max(c) is feasible in the dual, so only the learners tied
    # at the maximum of c start on an artificial, and phase 1 takes at most
    # one pivot for each of them
    data = pima_like()
    model = adaboost(data, 100, TreeParams(max_depth=2, max_leaves=4))
    matrix = prediction_matrix(model, data)
    solved = []
    real = reweight.solve

    def spy(problem):
        solution = real(problem)
        # the rhs is c - max(c) here and c at the parent: the same ties
        rhs = problem.b_ge
        solved.append((solution, int(np.sum(rhs == rhs.max()))))
        return solution

    monkeypatch.setattr(reweight, "solve", spy)
    for text in ("uws", "pws:0.05", "sm1"):
        apply_scheme(parse_spec(text), matrix, model.vote_weights)
    assert len(solved) == 3
    for solution, tied in solved:
        assert solution.status in ("optimal", "unbounded")
        assert solution.pivots[0] <= tied


def test_sm2_single_learner():
    m = matrix_of([[1], [-1], [1]], [1, 1, -1])
    result = sm2_weights(m, [1.0])
    assert result.weights.tolist() == [1.0]


def test_sm2_beats_alpha_at_its_own_game():
    matrix, alpha = small_forest(n=40, T=10, seed=2)
    result = sm2_weights(matrix, alpha)
    target = result.old_profile.mean
    sse_alpha = float(np.sum((alpha @ matrix.entries - target) ** 2))
    assert result.objective <= sse_alpha * (1 + 1e-9)
    assert result.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_sm2_non_normalizable_raises():
    # second learner is the first negated: coefficient mass cancels
    m = matrix_of([[1, -1], [1, -1], [-1, 1]], [1, 1, -1])
    with pytest.raises(EnsembleError, match="non-normalizable"):
        sm2_weights(m, [0.5, 0.5])


def test_sm2_reductions_are_consistent():
    matrix, alpha = small_forest(n=50, T=15, seed=6)
    result = sm2_weights(matrix, alpha)
    old, new = result.old_profile, result.new_profile
    assert result.variance_reduction == pytest.approx(old.variance - new.variance, abs=1e-12)
    assert result.range_reduction == pytest.approx(old.spread - new.spread, abs=1e-12)


def test_apply_scheme_dispch_and_labels():
    matrix, alpha = small_forest(n=30, T=6, seed=1)
    for text, scheme_label in (("uws", "uws"), ("ews:5", "ews:5"),
                               ("pws:0.2", "pws:0.2"), ("sm1:0.1", "sm1:0.1"),
                               ("sm2", "sm2")):
        result = apply_scheme(parse_spec(text), matrix, alpha)
        assert result.scheme == scheme_label
        # only the never-drop family guarantees an elementwise lift
        if text in ("uws", "ews:5", "pws:0.2"):
            assert np.all(result.new_profile.margins
                          >= result.old_profile.margins - 1e-7)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda m, a: mm_weights(m, a, uws_r(2)),
    lambda m, a: sm1_weights(m, a),
    lambda m, a: sm2_weights(m, a),
    lambda m, a: apply_scheme(parse_spec("uws"), m, a),
    lambda m, a: apply_scheme(parse_spec("sm2"), m, a),
], ids=["mm", "sm1", "sm2", "apply-uws", "apply-sm2"])
def test_nonfinite_vote_weights_rejected(call, bad):
    m = matrix_of([[1, -1], [1, 1]], [1, -1])
    with pytest.raises(ValueError, match="vote weights must be finite"):
        call(m, [bad, 0.5])


def test_alpha_validation():
    m = matrix_of([[1, 1]], [1])
    with pytest.raises(ValueError, match="sum to 1"):
        mm_weights(m, [0.5, 0.2], uws_r(1))
    with pytest.raises(ValueError, match="nonnegative"):
        mm_weights(m, [1.5, -0.5], uws_r(1))
    with pytest.raises(ValueError, match="not all zero"):
        mm_weights(m, [0.5, 0.5], np.zeros(1))
