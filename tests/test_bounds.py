import math

import numpy as np
import pytest

from margin_forge.bounds import (
    BoundReport, breiman_bound, germain_bound, gibbs_risk, report_rows, schapire_terms,
)
from margin_forge.ensemble import PredictionMatrix
from margin_forge.margins import MarginProfile, compute_margins

from disagreement_oracle import expected_disagreement


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


def test_germain_single_perfect_learner():
    m = matrix_of([[1.0], [-1.0]], [1, -1])
    report = germain_bound(m, [1.0])
    assert report.applicable
    assert report.value == pytest.approx(0.0, abs=1e-15)


def test_germain_identical_learners_value_2r():
    # both learners wrong on row 0 only: R = 1/4, never disagree, value = 2R
    m = matrix_of([[-1, -1], [1, 1], [1, 1], [1, 1]], [1, 1, 1, 1])
    report = germain_bound(m, [0.5, 0.5])
    assert report.applicable
    assert report.inputs["disagreement"] == pytest.approx(0.0, abs=1e-15)
    assert report.value == pytest.approx(0.5, abs=1e-12)


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
            direct = 1 - (1 - 2 * R_direct) / (1 - 2 * d_direct)
            assert report.value == pytest.approx(direct, abs=1e-10)


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
    # two perfectly anti-correlated learners: d_Q = 1/2 exactly
    m2 = matrix_of([[1, -1], [1, -1], [-1, 1]], [1, 1, -1])
    report2 = germain_bound(m2, [0.9, 0.1])
    if not report2.applicable:
        assert "1/2" in report2.reason or "positive" in report2.reason


def test_germain_weight_validation():
    m = matrix_of([[1, 1]], [1])
    with pytest.raises(ValueError):
        germain_bound(m, [0.7])
    with pytest.raises(ValueError):
        germain_bound(m, [1.5, -0.5])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="vote weights must be finite"):
            germain_bound(m, [bad, 0.5])


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
