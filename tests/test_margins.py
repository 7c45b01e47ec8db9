import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margin_forge.dataset_io import generate_synthetic
from margin_forge.ensemble import PredictionMatrix, prediction_matrix, random_forest
from margin_forge.margins import (
    MarginProfile, cmd, compute_margins, export_cmd, margin_improvement,
    training_error_from_margins,
)
from vote_oracle import test_error as error_rate


def matrix_of(entries, labels):
    # one literal row of raw votes per observation; the matrix stores one
    # row of signed votes per learner
    y = np.array(labels, dtype=float)
    return PredictionMatrix(np.array(entries, dtype=float).T * y, y)


def test_margin_hand_values():
    # all correct -> +1; split vote -> 0; mixed correctness -> signed sum
    m = matrix_of([[1, 1], [1, -1]], [1, 1])
    prof = compute_margins(m, [0.5, 0.5])
    assert prof.margins.tolist() == [1.0, 0.0]
    m3 = matrix_of([[1, -1, 1]], [1])
    prof3 = compute_margins(m3, [0.2, 0.3, 0.5])
    assert prof3.margins[0] == pytest.approx(0.4, abs=1e-15)


def test_margin_range_under_simplex_weights():
    rng = np.random.default_rng(0)
    h = np.where(rng.random((30, 6)) < 0.5, -1.0, 1.0)
    y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    w = rng.random(6)
    w /= w.sum()
    prof = compute_margins(matrix_of(h, y), w)
    assert np.all(prof.margins >= -1 - 1e-12)
    assert np.all(prof.margins <= 1 + 1e-12)
    assert prof.min <= prof.mean <= prof.max
    assert prof.variance >= 0


def test_statistics_identities():
    prof = MarginProfile(np.array([-0.4, 0.0, 0.2, 0.9]))
    m = prof.margins
    assert prof.mean == pytest.approx(m.sum() / 4, abs=1e-15)
    assert prof.variance == pytest.approx(np.mean((m - m.mean()) ** 2), abs=1e-12)
    assert prof.variance == pytest.approx(prof.second_moment - prof.mean ** 2, abs=1e-12)
    assert prof.spread == pytest.approx(0.9 - (-0.4), abs=1e-15)


def test_percentile_is_kth_smallest():
    prof = MarginProfile(np.array([0.5, -0.2, 0.1, 0.4, 0.3]))
    # ceil(5 * 0.05) = 1 -> smallest; ceil(5 * 0.5) = 3 -> third smallest
    assert prof.percentile(0.05) == -0.2
    assert prof.percentile(0.5) == 0.3
    assert prof.percentile(0.999) == 0.5
    with pytest.raises(ValueError):
        prof.percentile(0.0)
    with pytest.raises(ValueError):
        prof.percentile(1.0)


def test_cmd_counts_inclusively():
    prof = MarginProfile(np.array([-1.0, 0.0, 1.0]))
    assert dict(cmd(prof)) == pytest.approx({-1.0: 1 / 3, 0.0: 2 / 3, 1.0: 1.0})


def test_cmd_default_grid_and_monotonicity():
    rng = np.random.default_rng(3)
    prof = MarginProfile(rng.uniform(-1, 1, 50))
    series = cmd(prof)
    values = [v for _, v in series]
    assert values == sorted(values)
    assert values[-1] == 1.0
    thetas = [t for t, _ in series]
    assert thetas == sorted(set(map(float, prof.margins)))


def test_cmd_uniform_vector_single_step():
    prof = MarginProfile(np.full(7, 0.25))
    assert cmd(prof) == [(0.25, 1.0)]


def test_improvement_identical_and_shifted():
    prof = MarginProfile(np.array([0.1, 0.5, -0.3]))
    same = margin_improvement(prof, prof)
    assert same.mean == 0.0 and same.min == 0.0
    shifted = MarginProfile(prof.margins + 0.2)
    up = margin_improvement(prof, shifted)
    assert up.mean == pytest.approx(0.2, abs=1e-15)
    assert up.min == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(ValueError):
        margin_improvement(prof, MarginProfile(np.array([0.0, 0.0])))


def test_margin_sign_matches_vote_correctness():
    data = generate_synthetic("two-gaussians", 60, 1.5, seed=2)
    model = random_forest(data, T=9, seed=7)
    matrix = prediction_matrix(model, data)
    prof = compute_margins(matrix, model.vote_weights)
    from_margins = training_error_from_margins(prof, data.labels)
    assert from_margins == error_rate(model, data)


def test_zero_margin_tie_rule_depends_on_label():
    m = matrix_of([[1, -1], [1, -1]], [1, -1])
    prof = compute_margins(m, [0.5, 0.5])
    assert prof.margins.tolist() == [0.0, 0.0]
    # the zero vote goes +1: right for the +1 row, wrong for the -1 row
    assert training_error_from_margins(prof, [1.0, -1.0]) == 0.5


def test_tied_vote_of_equal_weights_is_an_exact_zero():
    # 1/100 is inexact, so a weighted sum of 50 votes each way can round to
    # +-1e-17; the tie rule needs the vote count itself
    rng = np.random.default_rng(11)
    votes = np.repeat([1.0, -1.0], 50)
    h = np.array([rng.permutation(votes) for _ in range(200)])
    y = np.ones(200)
    prof = compute_margins(matrix_of(h, y), np.full(100, 0.01))
    assert np.count_nonzero(prof.margins) == 0
    assert training_error_from_margins(prof, y) == 0.0


def test_learner_permutation_invariance():
    rng = np.random.default_rng(5)
    h = np.where(rng.random((20, 5)) < 0.5, -1.0, 1.0)
    y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    w = rng.random(5)
    w /= w.sum()
    perm = rng.permutation(5)
    a = compute_margins(matrix_of(h, y), w)
    b = compute_margins(matrix_of(h[:, perm], y), w[perm])
    assert np.allclose(a.margins, b.margins, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=40))
def test_cmd_is_a_cdf(values):
    prof = MarginProfile(np.array(values))
    series = cmd(prof)
    fracs = [v for _, v in series]
    assert all(0 <= v <= 1 for v in fracs)
    assert fracs == sorted(fracs)
    assert fracs[-1] == 1.0


def test_export_cmd(tmp_path):
    prof = MarginProfile(np.array([0.5, -0.5]))
    out = tmp_path / "cmd.tsv"
    export_cmd(prof, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["-0.5", "0.5"]
    assert lines[1].split("\t") == ["0.5", "1"]


def test_compute_margins_length_mismatch():
    m = matrix_of([[1, 1]], [1])
    with pytest.raises(ValueError):
        compute_margins(m, [1.0])
