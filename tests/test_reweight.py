import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from margin_forge import reweight
from margin_forge.dataset_io import generate_synthetic, stratified_split
from margin_forge.ensemble import (
    EnsembleError, PredictionMatrix, adaboost, prediction_matrix, random_forest,
)
from margin_forge.margins import compute_margins
from margin_forge.reweight import (
    RewSpec, SelfCheckError, apply_scheme, parse_spec, sm2_weights,
)
from margin_forge.cart import TreeParams
from margin_forge.harness import ExperimentConfig, run_experiment
from margin_forge.simplex import LpSolution
from bench_data import pima_like
from emphasis_oracle import emphasis
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


def emphasis_of(text, margins):
    # the package's emphasis for a scheme, checked against the oracle's
    spec = parse_spec(text)
    m = np.asarray(margins, dtype=float)
    r = reweight._emphasis(spec, m)
    assert r.tolist() == emphasis(spec.scheme, m, spec.k, spec.xi)
    return r


def test_emphasis_vectors():
    assert emphasis_of("uws", [0.3, -0.2, 0.1]).tolist() == [1.0, 1.0, 1.0]
    assert emphasis_of("ews:1", [0.1, 0.5, 0.9]).tolist() == [3.0, 2.0, 1.0]
    assert emphasis_of("ews:2", [0.1, 0.5, 0.9]).tolist() == [9.0, 4.0, 1.0]
    # smallest margin of n rows gets n^k
    r = emphasis_of("ews:5", np.linspace(-1, 1, 208))
    assert r.max() == 208.0 ** 5
    assert emphasis_of("pws:0.1", np.linspace(0, 1, 10)).sum() == 1.0
    assert emphasis_of("pws:0.1", np.linspace(0, 1, 10))[0] == 1.0


def test_pws_full_proportion_equals_uws():
    m = np.array([0.3, -0.1, 0.5, 0.2])
    assert np.array_equal(emphasis_of("pws:0.9999", m), emphasis_of("uws", m))


def test_rank_ties_resolve_by_index():
    r = emphasis_of("ews:1", [0.5, 0.5, 0.1])
    # ranks: the 0.1 gets 1; the tied 0.5s get 2 then 3 by position
    assert r.tolist() == [2.0, 1.0, 3.0]
    ind = emphasis_of("pws:0.5", [0.2, 0.2, 0.2, 0.9])  # k=2, tie at 0.2
    assert ind.tolist() == [1.0, 1.0, 0.0, 0.0]


@settings(max_examples=60, deadline=None)
@given(margins=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]), min_size=1,
                        max_size=40),
       text=st.sampled_from(["uws", "ews:1", "ews:3", "pws:0.05", "pws:0.5", "pws:0.9"]))
def test_emphasis_matches_the_oracle_on_tied_margins(margins, text):
    # few distinct values, so most rows share a margin with another row
    emphasis_of(text, margins)


def test_ews_strictly_decreasing_over_distinct_ranks():
    rng = np.random.default_rng(0)
    m = rng.uniform(-1, 1, 12)
    r = emphasis_of("ews:5", m)
    order = np.argsort(m, kind="stable")
    assert np.all(np.diff(r[order]) < 0)


def test_mm_single_learner_is_identity():
    m = matrix_of([[1], [-1], [1]], [1, 1, -1])
    result = apply_scheme(RewSpec("uws"), m, [1.0])
    assert result.weights.tolist() == [1.0]
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    assert np.array_equal(result.new_profile.margins, result.old_profile.margins)


def test_mm_never_lowers_a_margin():
    matrix, alpha = small_forest()
    for text in ("uws", "ews:5", "pws:0.2"):
        result = apply_scheme(parse_spec(text), matrix, alpha)
        assert result.feasible
        assert np.all(result.new_profile.margins >= result.old_profile.margins - 1e-7)
        assert result.objective >= -1e-9
        w = result.weights
        assert np.all(w >= -1e-9) and w.sum() == pytest.approx(1.0, abs=1e-9)


def test_mm_keeps_alpha_when_the_lp_does_not_beat_it(monkeypatch):
    # an answer that scores below alpha under uws's all-ones emphasis is
    # rounding noise: alpha, which meets every floor, is kept and the
    # objective is exactly 0
    matrix, alpha = small_forest(n=30, T=8, seed=5)
    r = np.ones(matrix.n_rows)
    worse = np.zeros(matrix.n_learners)
    worse[np.argmin(matrix.entries @ r)] = 1.0
    old = compute_margins(matrix, alpha)
    assert r @ (compute_margins(matrix, worse).margins - old.margins) < 0
    monkeypatch.setattr(reweight, "_margin_lp", lambda *args: worse)
    result = apply_scheme(RewSpec("uws"), matrix, alpha)
    assert np.array_equal(result.weights, alpha)
    assert result.objective == 0.0
    assert np.array_equal(result.new_profile.margins, old.margins)


def test_mm_objective_identity():
    matrix, alpha = small_forest(n=30, T=8, seed=5)
    old = compute_margins(matrix, alpha)
    r = np.array(emphasis("ews", old.margins, k=3))
    result = apply_scheme(RewSpec("ews", k=3), matrix, alpha)
    by_hand = float(r @ (result.new_profile.margins - old.margins))
    assert result.objective == pytest.approx(by_hand, abs=1e-7)


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
        spec = [RewSpec("uws"), RewSpec("ews", k=2), RewSpec("pws", xi=0.4)][usable % 3]
        r = np.array(emphasis(spec.scheme, old.margins, spec.k, spec.xi))
        scaled = r / r.max()
        result = apply_scheme(spec, matrix, alpha)
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
    result = apply_scheme(RewSpec("sm1", xi=0.5), m, [0.5, 0.5])
    assert result.feasible
    assert np.all(result.new_profile.margins >= result.old_profile.margins - 1e-7)


def test_sm1_floor_contract_when_feasible():
    matrix, alpha = small_forest(n=50, T=20, seed=2)
    result = apply_scheme(RewSpec("sm1", xi=0.1), matrix, alpha)
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
    result = apply_scheme(RewSpec("sm1", xi=0.5), m, [0.5, 0.5])
    assert not result.feasible
    assert result.weights is None and result.new_profile is None
    assert result.variance_reduction is None and result.range_reduction is None
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
        result = apply_scheme(RewSpec("sm1", xi=0.3), matrix, alpha)
        if best is not None:
            # a feasible grid point proves the LP is feasible
            assert result.feasible
            assert result.objective >= best - 1e-9
            assert result.objective == pytest.approx(best, abs=2e-3)
            seen_feasible = True
    assert seen_feasible


_MARGIN_LP_SCHEMES = pytest.mark.parametrize(
    "spec", [RewSpec("uws"), RewSpec("sm1", xi=0.5)], ids=["mm", "sm1"])


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
def test_margin_lp_rejects_an_answer_below_a_floor(monkeypatch, spec):
    # learner 0 misses row 0 and learner 1 hits both rows; all the weight on
    # learner 0 drops row 0's margin from 0 to -1, below its floor in both LPs
    matrix = matrix_of([[-1, 1], [1, 1]], [1, 1])
    monkeypatch.setattr(reweight, "solve", _dual_answer([1.0, 0.0]))
    with pytest.raises(SelfCheckError, match="ge constraints"):
        apply_scheme(spec, matrix, np.array([0.5, 0.5]))


@_MARGIN_LP_SCHEMES
def test_margin_lp_rejects_an_answer_with_a_duality_gap(monkeypatch, spec):
    # all the weight on learner 1 lifts both margins to 1, above every
    # floor, but the reported dual objective is off by 1e-6
    matrix = matrix_of([[-1, 1], [1, 1]], [1, 1])
    monkeypatch.setattr(reweight, "solve", _dual_answer([0.0, 1.0], 1e-6))
    with pytest.raises(SelfCheckError, match="duality gap"):
        apply_scheme(spec, matrix, np.array([0.5, 0.5]))
    monkeypatch.setattr(reweight, "solve", _dual_answer([0.0, 1.0]))
    assert apply_scheme(spec, matrix, np.array([0.5, 0.5])).weights.tolist() == [0.0, 1.0]


def test_margin_lp_reports_a_dual_failure(monkeypatch):
    monkeypatch.setattr(reweight, "solve", lambda problem: LpSolution("infeasible", None, None))
    with pytest.raises(SelfCheckError, match="dual ended infeasible"):
        apply_scheme(RewSpec("sm1"), matrix_of([[-1, 1], [1, 1]], [1, 1]), [0.5, 0.5])


def test_mm_lp_found_infeasible_is_a_self_check_failure(monkeypatch):
    # alpha meets every floor of the mm LP, so a dual that reports the
    # primal infeasible is wrong
    monkeypatch.setattr(reweight, "solve", lambda problem: LpSolution("unbounded", None, None))
    with pytest.raises(SelfCheckError, match="margin LP ended infeasible"):
        apply_scheme(RewSpec("uws"), matrix_of([[-1, 1], [1, 1]], [1, 1]), [0.5, 0.5])


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


@pytest.fixture(scope="module")
def pima_lps():
    # benchmark-sized margin LPs: AdaBoost T=100 on the 538 training rows of
    # a 70/30 pima-like split; sm1 is infeasible there at xi = 0.05 and
    # feasible at xi = 0.001
    train, _ = stratified_split(pima_like(), 0.7, 1)
    model = adaboost(train, 100, TreeParams(max_depth=2, max_leaves=4))
    matrix, alpha = prediction_matrix(model, train), model.vote_weights
    return matrix, alpha, {text: apply_scheme(parse_spec(text), matrix, alpha)
                           for text in ("uws", "sm1", "sm1:0.001")}


def _permute_learners(matrix, alpha, rng):
    order = rng.permutation(matrix.n_learners)
    return PredictionMatrix(matrix.entries[order], matrix.labels), alpha[order]


def _permute_rows(matrix, alpha, rng):
    order = rng.permutation(matrix.n_rows)
    return PredictionMatrix(matrix.entries[:, order], matrix.labels[order]), alpha


def _split_a_learner(matrix, alpha, rng):
    # a copy of learner t that takes 30% of its vote spans the same margins
    t = int(rng.integers(matrix.n_learners))
    entries = np.vstack([matrix.entries, matrix.entries[t]])
    split = np.append(alpha, 0.3 * alpha[t])
    split[t] *= 0.7
    return PredictionMatrix(entries, matrix.labels), split


@pytest.mark.parametrize("transform", [_permute_learners, _permute_rows, _split_a_learner],
                         ids=["learners", "rows", "split"])
def test_margin_lp_optimum_is_invariant(pima_lps, transform):
    # each transform leaves the set of reachable margin vectors as it was,
    # up to the order of its rows, so it keeps the LP's optimum and its
    # feasibility; the optimal vertex may move, so weights are not
    # compared.  The objectives differ only through summation order in the
    # margins (about 1e-13 relative); 1e-10 stays far from that and well
    # inside the 1e-9 duality gap the LP's answer is allowed
    matrix, alpha, before = pima_lps
    moved, moved_alpha = transform(matrix, alpha, np.random.default_rng(5))
    assert before["uws"].feasible and before["sm1:0.001"].feasible
    for text, result in before.items():
        after = apply_scheme(parse_spec(text), moved, moved_alpha)
        assert after.feasible == result.feasible
        if result.feasible:
            assert after.objective == pytest.approx(result.objective, rel=1e-10)


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


def lstsq_reference(matrix, target):
    coef, *_ = np.linalg.lstsq(matrix.entries.T, np.full(matrix.n_rows, target), rcond=None)
    return coef


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), T=st.integers(1, 8),
       copies=st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=5))
def test_sm2_matches_the_svd_least_squares_fit(seed, n, T, copies):
    # duplicated and negated learners put exact null vectors in the Gram
    # matrix, and T + copies > n leaves it rank deficient too; both routes
    # must give the minimum-norm solution
    rng = np.random.default_rng(seed)
    votes = [np.where(rng.random(n) < 0.5, -1.0, 1.0) for _ in range(T)]
    for source, negate in copies:
        votes.append(-votes[source % len(votes)] if negate else votes[source % len(votes)])
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    matrix = PredictionMatrix(np.array(votes) * y, y)
    alpha = rng.random(len(votes)) + 0.1
    alpha /= alpha.sum()
    target = compute_margins(matrix, alpha).mean
    coef = lstsq_reference(matrix, target)
    # normalizing divides by the coefficient sum; near zero it amplifies
    # rounding in either route past any fixed tolerance
    assume(abs(coef.sum()) > 1e-6)
    result = sm2_weights(matrix, alpha)
    assert np.abs(result.weights - coef / coef.sum()).max() <= 1e-9
    # a consistent system leaves only rounding in the SSE, hence the floor
    sse = float(np.sum((coef @ matrix.entries - target) ** 2))
    assert result.objective == pytest.approx(sse, rel=1e-9, abs=1e-20 * n)


def test_sm2_falls_back_to_the_svd_without_a_spectral_gap(monkeypatch):
    # one eigenvalue moved between the null-space cut and lam_max * sqrt(eps)
    # leaves no clear gap: the fit must be lstsq's, not a solve through it
    matrix, alpha = small_forest(n=50, T=15, seed=6)
    real = np.linalg.eigh

    def blurred(gram):
        lam, vecs = real(gram)
        lam = lam.copy()
        lam[-2] = lam[-1] * 1e-10
        return np.sort(lam), vecs[:, np.argsort(lam)]

    expected = lstsq_reference(matrix, compute_margins(matrix, alpha).mean)
    monkeypatch.setattr(np.linalg, "eigh", blurred)
    result = sm2_weights(matrix, alpha)
    assert result.weights.tolist() == (expected / expected.sum()).tolist()


def test_apply_scheme_dispatch_and_labels():
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
    lambda m, a: apply_scheme(parse_spec("sm1"), m, a),
    lambda m, a: sm2_weights(m, a),
    lambda m, a: apply_scheme(parse_spec("uws"), m, a),
    lambda m, a: apply_scheme(parse_spec("ews"), m, a),
    lambda m, a: apply_scheme(parse_spec("pws:0.5"), m, a),
    lambda m, a: apply_scheme(parse_spec("sm2"), m, a),
], ids=["sm1", "sm2", "apply-uws", "apply-ews", "apply-pws", "apply-sm2"])
def test_nonfinite_vote_weights_rejected(call, bad):
    m = matrix_of([[1, -1], [1, 1]], [1, -1])
    with pytest.raises(ValueError, match="vote weights must be finite"):
        call(m, [bad, 0.5])


def test_alpha_validation():
    m = matrix_of([[1, 1]], [1])
    for text in ("uws", "ews", "pws:0.5", "sm1", "sm2"):
        with pytest.raises(ValueError, match="sum to 1"):
            apply_scheme(parse_spec(text), m, [0.5, 0.2])
        with pytest.raises(ValueError, match="nonnegative"):
            apply_scheme(parse_spec(text), m, [1.5, -0.5])
