import math
import re

import numpy as np
import pytest

from margin_forge.bounds import (
    BoundReport, breiman_bound, germain_bound, gibbs_risk, report_rows, schapire_terms,
)
from margin_forge.cart import TreeParams
from margin_forge.dataset_io import stratified_split
from margin_forge.ensemble import PredictionMatrix, adaboost, random_forest
from margin_forge.margins import MarginProfile, compute_margins

from bench_data import pima_like, sonar_like
from disagreement_oracle import c_bound, expected_disagreement, majority_vote_error


def matrix_of(entries, labels):
    # one literal row of raw votes per observation; the matrix stores one
    # row of signed votes per learner
    y = np.array(labels, dtype=float)
    return PredictionMatrix(np.array(entries, dtype=float).T * y, y)


def random_matrix(rng, n, T):
    h = np.where(rng.random((n, T)) < 0.5, -1.0, 1.0)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return matrix_of(h, y)


def simplex(rng, T):
    w = rng.random(T) + 0.05
    return w / w.sum()


def test_schapire_hand_values():
    report = schapire_terms(MarginProfile(np.full(5, 1.0)), 0.5, d=3, n=5)
    assert report.applicable and report.terms[0] == 0.0
    report = schapire_terms(MarginProfile(np.array([0.1])), 0.1, d=10, n=1000)
    assert report.terms[1] == pytest.approx(1.0, abs=1e-15)
    report = schapire_terms(MarginProfile(np.array([-0.2, 0.3, 0.6])), 0.3, d=2, n=3)
    assert report.terms[0] == pytest.approx(2 / 3)  # the count is inclusive


def test_schapire_validation_and_applicability():
    prof = MarginProfile(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        schapire_terms(prof, 0.0, 5, 2)
    with pytest.raises(ValueError):
        schapire_terms(prof, 0.5, -1, 2)
    stretched = MarginProfile(np.array([1.7, -0.3]))  # negative-weight margins
    report = schapire_terms(stretched, 0.5, 5, 2)
    assert not report.applicable
    assert "simplex" in report.reason


def test_schapire_refuses_a_complexity_term_past_the_float_range():
    prof = MarginProfile(np.array([0.2, 0.5]))
    # n theta^2 underflows to 0, d / (n theta^2) overflows, n theta^2 overflows
    for theta, n in ((1e-200, 100), (1e-170, 100), (1e-155, 1), (1e160, 100), (1e200, 100)):
        with pytest.raises(ValueError, match=re.escape(f"at theta = {theta:.6g}") + "$"):
            schapire_terms(prof, theta, 6, n)
    assert schapire_terms(prof, 1e-150, 6, 1).terms[1] == math.sqrt(6 / 1e-300)


def test_schapire_empirical_term_monotone_in_theta():
    rng = np.random.default_rng(4)
    prof = MarginProfile(rng.uniform(-1, 1, 60))
    thetas = np.linspace(0.05, 0.95, 10)
    values = [schapire_terms(prof, t, 5, 60).terms[0] for t in thetas]
    assert values == sorted(values)
    tiny = schapire_terms(prof, 1e-12, 5, 60).terms[0]
    assert tiny == pytest.approx(np.mean(prof.margins <= 0), abs=1e-9)


def test_breiman_gate_and_value():
    hspace = 1000.0
    gate = 4 * math.sqrt(2 / hspace)
    closed = breiman_bound(gate * 0.99, hspace, n=500, delta=0.05)
    assert not closed.applicable and "4*sqrt" in closed.reason
    open_ = breiman_bound(0.5, hspace, n=500, delta=0.05)
    assert open_.applicable
    R = (32 / (500 * 0.25)) * math.log(2000)
    want = R * (1 + math.log(1000) + math.log(1 / R)) + math.log(hspace / 0.05) / 500
    assert open_.value == pytest.approx(want, rel=1e-12)
    assert open_.inputs["R"] == pytest.approx(R, rel=1e-12)


def test_breiman_monotone_decreasing_in_min_margin():
    values = [breiman_bound(t, 1e6, n=2000, delta=0.05).value
              for t in np.linspace(0.2, 0.95, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_breiman_shrinks_with_n():
    values = [breiman_bound(0.6, 1e5, n=n, delta=0.05).value
              for n in (200, 2000, 20000, 200000, 2000000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.05


def test_breiman_r_cap():
    # tiny n with a huge hypothesis space pushes R past 2n
    report = breiman_bound(0.3, 1e9, n=1, delta=0.05)
    assert not report.applicable and "2n" in report.reason


def test_breiman_validation():
    with pytest.raises(ValueError):
        breiman_bound(0.5, 1.0, 100, 0.05)
    with pytest.raises(ValueError):
        breiman_bound(0.5, 100.0, 100, 1.5)


PROFILE = MarginProfile(np.array([0.5, -0.1]))


@pytest.mark.parametrize("bound, message", [
    (lambda: schapire_terms(PROFILE, math.nan, 6, 2), "theta must be positive and finite"),
    (lambda: schapire_terms(PROFILE, math.inf, 6, 2), "theta must be positive and finite"),
    (lambda: schapire_terms(PROFILE, 0.1, math.nan, 2), "positive finite capacity d"),
    (lambda: schapire_terms(PROFILE, 0.1, math.inf, 2), "positive finite capacity d"),
    (lambda: breiman_bound(math.inf, 500.0, 100, 0.05), "theta0 must be finite"),
    (lambda: breiman_bound(math.nan, 500.0, 100, 0.05), "theta0 must be finite"),
    (lambda: breiman_bound(1e200, 500.0, 100, 0.05), "R underflows to 0 at theta0 = 1e\\+200"),
    (lambda: breiman_bound(0.5, math.nan, 100, 0.05), "hypothesis-space size must be finite"),
    (lambda: breiman_bound(0.5, math.inf, 100, 0.05), "hypothesis-space size must be finite"),
], ids=["schapire-theta-nan", "schapire-theta-inf", "vc-nan", "vc-inf", "breiman-theta-inf",
        "breiman-theta-nan", "r-underflow", "hspace-nan", "hspace-inf"])
def test_bounds_refuse_non_finite_inputs(bound, message):
    # each would otherwise print a nan, inf or 0 term or divide by R = 0
    with pytest.raises(ValueError, match=message):
        bound()


def test_germain_single_perfect_learner():
    m = matrix_of([[1.0], [-1.0]], [1, -1])
    report = germain_bound(m, [1.0])
    assert report.applicable
    assert report.value == pytest.approx(0.0, abs=1e-15)


def test_germain_identical_learners_value_4r_times_1_minus_r():
    # both learners wrong on row 0 only: R = 1/4, never disagree, so
    # 1 - (1 - 2R)**2 = 4R(1 - R) = 3/4
    m = matrix_of([[-1, -1], [1, 1], [1, 1], [1, 1]], [1, 1, 1, 1])
    report = germain_bound(m, [0.5, 0.5])
    assert report.applicable
    assert report.inputs["disagreement"] == pytest.approx(0.0, abs=1e-15)
    assert report.value == pytest.approx(0.75, abs=1e-12)


def test_germain_moment_identities_match_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        T = int(rng.integers(2, 7))
        matrix = random_matrix(rng, n, T)
        w = simplex(rng, T)
        R_direct = gibbs_risk(matrix, w)
        d_direct = expected_disagreement(matrix, w)
        prof = compute_margins(matrix, w)
        assert R_direct == pytest.approx((1 - prof.mean) / 2, abs=1e-10)
        assert d_direct == pytest.approx((1 - prof.second_moment) / 2, abs=1e-10)
        report = germain_bound(matrix, w)
        if report.applicable:
            direct = 1 - (1 - 2 * R_direct) ** 2 / (1 - 2 * d_direct)
            assert report.value == pytest.approx(direct, abs=1e-10)


TREES = TreeParams(max_depth=2, max_leaves=4)


@pytest.mark.parametrize("fit", ["adaboost", "random-forest"])
@pytest.mark.parametrize("make", [sonar_like, pima_like])
def test_germain_c_bound_holds_on_trained_ensembles(fit, make):
    # the C-bound holds under any distribution, the training sample's too
    train, _ = stratified_split(make(), 0.7, 0)
    if fit == "adaboost":
        model = adaboost(train, 100, TREES)
    else:
        model = random_forest(train, 100, params=TREES, seed=0)
    matrix, w = model.train_matrix, model.vote_weights
    report = germain_bound(matrix, w)
    assert report.applicable and not report.flags
    assert 0.0 <= report.value <= 1.0
    assert report.value >= majority_vote_error(matrix, w)
    assert report.value == pytest.approx(c_bound(matrix, w), abs=1e-12)


def test_germain_disagreement_brute_force_pairs():
    rng = np.random.default_rng(13)
    matrix = random_matrix(rng, 8, 5)
    w = simplex(rng, 5)
    h = matrix.entries
    total = 0.0
    for t in range(5):
        for u in range(5):
            total += w[t] * w[u] * float(np.mean(h[t] != h[u]))
    assert expected_disagreement(matrix, w) == pytest.approx(total, abs=1e-12)


def test_germain_gates():
    # all learners wrong on everything: margin mean is negative
    m = matrix_of([[-1], [-1]], [1, 1])
    report = germain_bound(m, [1.0])
    assert not report.applicable and "positive" in report.reason
    # two perfectly anti-correlated learners: at equal weights d_Q = 1/2 and
    # every margin is 0, which the positive-mean gate refuses
    m2 = matrix_of([[1, -1], [1, -1], [-1, 1]], [1, 1, -1])
    report2 = germain_bound(m2, [0.5, 0.5])
    assert not report2.applicable and "positive" in report2.reason
    # at 0.9/0.1 every margin is 0.8 up to rounding: no variance, so the bound is 0
    report3 = germain_bound(m2, [0.9, 0.1])
    assert report3.applicable and not report3.flags
    assert report3.value == pytest.approx(0.0, abs=1e-15)


def test_germain_weight_validation():
    m = matrix_of([[1, 1]], [1])
    with pytest.raises(ValueError):
        germain_bound(m, [0.7])
    with pytest.raises(ValueError):
        germain_bound(m, [1.5, -0.5])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="vote weights must be finite"):
            germain_bound(m, [bad, 0.5])


def test_gibbs_risk_weight_validation():
    # learner 0 errs on one row of two, learner 1 on none
    m = matrix_of([[1, 1], [-1, 1]], [1, 1])
    assert gibbs_risk(m, [0.5, 0.5]) == 0.25
    with pytest.raises(ValueError, match="vote weights must be finite"):
        gibbs_risk(m, [math.nan, 0.5])
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        gibbs_risk(m, [2.0, -3.0])


def test_report_rows_render():
    report = breiman_bound(0.5, 1000.0, n=500, delta=0.05)
    rows = report_rows(report)
    assert rows[0] == "name\tbreiman"
    assert any(r.startswith("value\t") for r in rows)
    sch = schapire_terms(MarginProfile(np.array([0.4])), 0.2, 4, 1)
    rows = report_rows(sch)
    assert any(r.startswith("empirical_term\t") for r in rows)
    assert any(r.startswith("complexity_term\t") for r in rows)


def test_bound_report_validation():
    with pytest.raises(ValueError):
        BoundReport("mystery", True, 0.5)
    with pytest.raises(ValueError):
        BoundReport("breiman", True, math.inf)
