"""Top-level acceptance run.

Ten numbered end-to-end checks, each printing one PASS or FAIL line on
the real stdout so a full run reads as a checklist.  Every check pins
its tolerances inline; the configurations were chosen once and frozen.
"""
import math
import time

import mpmath
import numpy as np

from bench_data import ionosphere_like, pima_like, sonar_like
from emphasis_oracle import emphasis
from lp_oracle import oracle_solve, random_lp
from prefix_oracle import truncate_model
from replay_oracle import replay_distributions
from simplex_grid_oracle import grid_best

from margin_forge.bounds import breiman_bound, germain_bound
from margin_forge.cart import TreeParams
from margin_forge.dataset_io import generate_synthetic, load_dataset, write_dataset
from margin_forge.ensemble import (
    PredictionMatrix, adaboost, bagging, prediction_matrix, random_forest,
)
from margin_forge.harness import (
    ExperimentConfig, paired_t_test, run_experiment, t_two_sided_p,
)
from margin_forge.margins import MarginProfile, compute_margins
from margin_forge.reweight import RewSpec, apply_scheme, parse_spec, sm2_weights
from margin_forge.simplex import solve


def _check(num: int, name: str, fn, cap) -> None:
    """Run one check and print its verdict on the uncaptured stdout."""
    try:
        fn()
    except BaseException:
        with cap.disabled():
            print(f"\n[check {num:02d}/10] FAIL {name}", flush=True)
        raise
    with cap.disabled():
        print(f"\n[check {num:02d}/10] PASS {name}", flush=True)


def _matrix_of(entries, labels) -> PredictionMatrix:
    # one literal row of raw votes per observation; the matrix stores one
    # row of signed votes per learner
    y = np.array(labels, dtype=float)
    return PredictionMatrix(np.array(entries, dtype=float).T * y, y)


TREES = TreeParams(max_depth=2, max_leaves=4)


def test_solver_agrees_with_vertex_enumeration(capsys):
    def run():
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        for _ in range(200):
            problem = random_lp(rng)
            want_status, want_value = oracle_solve(problem)
            got = solve(problem)
            assert got.status == want_status
            if want_status == "optimal":
                assert abs(got.objective_value - want_value) <= 1e-6
        assert time.perf_counter() - start < 10.0

    _check(1, "solver agrees with vertex enumeration on 200 random problems", run, capsys)


def test_margin_lp_improves_margins_on_every_combination(tmp_path, capsys):
    def run():
        datasets = [sonar_like(0)]
        specs = [("two-gaussians", 120, 1.3, 21), ("ring-vs-disk", 140, 0.3, 22),
                 ("two-gaussians", 100, 1.8, 23)]
        for kind, n, noise, seed in specs:
            path = tmp_path / f"{kind}-{seed}.csv"
            write_dataset(generate_synthetic(kind, n, noise, seed), path)
            datasets.append(load_dataset(path))
        runs = 0
        for data in datasets:
            models = [adaboost(data, 40, TREES),
                      random_forest(data, 40, params=TREES, seed=5)]
            for model in models:
                matrix = prediction_matrix(model, data)
                alpha = model.vote_weights
                old = compute_margins(matrix, alpha).margins
                for text in ("uws", "ews:5", "pws:0.05"):
                    result = apply_scheme(parse_spec(text), matrix, alpha)
                    assert result.feasible
                    assert np.all(result.new_profile.margins >= old - 1e-7)
                    w = result.weights
                    assert np.all(w >= -1e-9)
                    assert abs(w.sum() - 1.0) <= 1e-9
                    assert result.objective >= -1e-9
                    runs += 1
        assert runs == 24

    _check(2, "margin LP never lowers a margin across datasets, methods, schemes", run, capsys)


def test_boosting_keeps_each_round_at_half_error(capsys):
    def run():
        datasets = [sonar_like(0), ionosphere_like(0), pima_like(0),
                    generate_synthetic("two-gaussians", 300, 1.2, 7),
                    generate_synthetic("ring-vs-disk", 300, 0.25, 3)]
        for data in datasets:
            model = adaboost(data, 50, TREES)
            assert model.break_reason is None
            assert model.n_learners == 50
            history = replay_distributions(model, data)
            for t, tree in enumerate(model.trees):
                wrong = tree.predict(data.features) != data.labels
                err = float(history[t + 1][wrong].sum())
                assert abs(err - 0.5) <= 1e-12

    _check(3, "each boosting round scores exactly half error on the next distribution", run, capsys)


def test_group_floors_hold_and_infeasibility_is_reported(capsys):
    def run():
        data = generate_synthetic("two-gaussians", 50, 1.6, 2)
        model = random_forest(data, 20, seed=2)
        matrix = prediction_matrix(model, data)
        result = apply_scheme(RewSpec("sm1", xi=0.1), matrix, model.vote_weights)
        assert result.feasible
        old = result.old_profile
        theta = old.percentile(0.1)
        low = old.margins <= old.mean
        new = result.new_profile.margins
        assert np.all(new[low] >= theta - 1e-7)
        assert np.all(new[~low] >= old.mean - 1e-7)

        # one row is wrong under every learner, so no simplex point lifts it
        stuck = _matrix_of([[-1, -1], [1, 1], [1, 1], [1, 1]], [1, 1, 1, 1])
        blocked = apply_scheme(RewSpec("sm1", xi=0.5), stuck, [0.5, 0.5])
        assert blocked.feasible is False

    _check(4, "group floors hold when feasible and infeasibility is reported", run, capsys)


def test_regression_fit_beats_original_weights_in_sse(capsys):
    def run():
        builders = [
            lambda d, s: adaboost(d, 15, TREES),
            lambda d, s: random_forest(d, 12, params=TREES, seed=s),
            lambda d, s: bagging(d, 10, params=TREES, seed=s),
        ]
        configs = [("two-gaussians", 60, 1.4), ("ring-vs-disk", 80, 0.3),
                   ("two-gaussians", 90, 1.8), ("ring-vs-disk", 50, 0.4),
                   ("two-gaussians", 70, 1.2)]
        checked = 0
        for i, (kind, n, noise) in enumerate(configs):
            data = generate_synthetic(kind, n, noise, seed=30 + i)
            for j, build in enumerate(builders[: 2 if i % 2 else 3]):
                model = build(data, 40 + i + j)
                matrix = prediction_matrix(model, data)
                alpha = model.vote_weights
                result = sm2_weights(matrix, alpha)
                old = result.old_profile
                sse_original = float(np.sum((old.margins - old.mean) ** 2))
                assert result.objective <= sse_original * (1.0 + 1e-9) + 1e-12
                checked += 1
                if checked == 10:
                    return
        raise AssertionError(f"only {checked} models checked")

    _check(5, "regression reweighting never exceeds the original squared error", run, capsys)


HAND_INSTANCES = [
    # (entries, labels, alpha); alpha kept on the 1e-3 grid
    ([[1, 1, -1], [1, -1, 1], [-1, 1, 1], [1, 1, 1], [1, -1, -1]],
     [1, 1, 1, 1, -1], (0.5, 0.3, 0.2)),
    ([[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1], [1, 1, -1]],
     [1, 1, -1, 1, -1, 1], (0.4, 0.35, 0.25)),
    ([[1, -1, 1], [1, 1, -1], [-1, 1, 1], [1, 1, 1]],
     [1, 1, 1, -1], (0.6, 0.25, 0.15)),
    ([[1, 1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, -1], [1, -1, -1]],
     [1, 1, 1, 1, -1, -1], (0.45, 0.3, 0.25)),
]


def test_tiny_instance_optima_match_grid_search(capsys):
    def run():
        for entries, labels, alpha in HAND_INSTANCES:
            matrix = _matrix_of(entries, labels)
            a = np.array(alpha)
            signed = matrix.entries.T
            old = compute_margins(matrix, a).margins
            n = len(labels)
            for spec in (RewSpec("uws"), RewSpec("ews", k=3)):
                r = np.array(emphasis(spec.scheme, old, spec.k))
                result = apply_scheme(spec, matrix, a)
                best, _ = grid_best(signed, old, r, old)
                assert best is not None
                assert abs(result.objective - best) <= 2e-3

            result = apply_scheme(RewSpec("sm1", xi=0.3), matrix, a)
            profile = compute_margins(matrix, a)
            floors = np.where(old <= profile.mean, profile.percentile(0.3), profile.mean)
            best, _ = grid_best(signed, floors, np.ones(n), old)
            if result.feasible:
                assert best is not None
                assert abs(result.objective - best) <= 2e-3
            else:
                # the grid must agree there is nothing to stand on
                assert best is None

    _check(6, "tiny-instance optima match 2-simplex grid search", run, capsys)


def test_reweighting_lifts_margins_without_lifting_accuracy(capsys):
    def run():
        start = time.perf_counter()
        for data in (sonar_like(0), ionosphere_like(0), pima_like(0)):
            config = ExperimentConfig(
                dataset=data, schemes=(parse_spec("uws"),), method="adaboost",
                n_trees=100, tree_params=TREES, simulations=30, seed=0)
            report = run_experiment(config)
            assert report.successes == 30
            summary = next(s for s in report.summaries if s.label == "uws")
            assert summary.mean_error >= report.baseline_error - 0.005
            assert summary.mean_improvement > 0.0
        assert time.perf_counter() - start < 600.0

    _check(7, "margin lift does not buy test accuracy at benchmark scale", run, capsys)


def test_low_margin_percentile_grows_with_rounds(capsys):
    def run():
        data = generate_synthetic("two-gaussians", 1000, 1.4, 0)
        model = adaboost(data, 500, TREES)
        assert model.n_learners == 500
        values = []
        for count in (50, 200, 500):
            sub = truncate_model(model, count)
            profile = compute_margins(prediction_matrix(sub, data), sub.vote_weights)
            values.append(profile.percentile(0.05))
        assert values[0] < values[1] < values[2]

    _check(8, "5th-percentile margin strictly grows with more rounds", run, capsys)


def _quadrature_two_sided_p(t: float, df: int) -> float:
    mpmath.mp.dps = 40
    nu = mpmath.mpf(df)
    c = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
    density = lambda u: c * (1 + u * u / nu) ** (-(nu + 1) / 2)
    tail = mpmath.quad(density, [abs(t), mpmath.inf])
    return float(2 * tail)


def test_paired_t_tail_matches_quadrature(capsys):
    def run():
        hand = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert hand.t == 2.0 * math.sqrt(3.0)
        assert hand.df == 2
        assert abs(hand.p - (1.0 - math.sqrt(6.0 / 7.0))) <= 1e-14

        for df in (1, 2, 3, 5, 10, 30, 100):
            for t in (0.0, 0.5, 1.5, 2.0 * math.sqrt(3.0), 5.0, 10.0):
                assert abs(t_two_sided_p(t, df) - _quadrature_two_sided_p(t, df)) <= 1e-8

    _check(9, "paired t-test tail areas match direct quadrature", run, capsys)


def _pairwise_vote_bound(matrix: PredictionMatrix, w: np.ndarray) -> float:
    # raw votes back from the signed ones, since y * y = 1
    h, y = (matrix.entries * matrix.labels).T, matrix.labels
    n, T = h.shape
    risk = 0.0
    for t in range(T):
        wrong = sum(1 for i in range(n) if h[i, t] != y[i])
        risk += w[t] * wrong / n
    disagreement = 0.0
    for t in range(T):
        for u in range(T):
            differ = sum(1 for i in range(n) if h[i, t] != h[i, u])
            disagreement += w[t] * w[u] * differ / n
    return 1.0 - (1.0 - 2.0 * risk) ** 2 / (1.0 - 2.0 * disagreement)


def test_vote_bound_identities(capsys):
    def run():
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(25, 45))
            T = int(rng.integers(5, 13))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            correct = rng.random((n, T)) < 0.75
            h = np.where(correct, y[:, None], -y[:, None])
            w = rng.random(T) + 0.2
            w /= w.sum()
            matrix = PredictionMatrix(h.T * y, y)
            report = germain_bound(matrix, w)
            assert report.applicable and not report.flags
            assert abs(report.value - _pairwise_vote_bound(matrix, w)) <= 1e-12
            # the C-bound bounds the vote's error on the sample; a tie says +1
            said = np.where(h @ w >= 0, 1.0, -1.0)
            assert 0.0 <= float(np.mean(said != y)) <= report.value <= 1.0

        grid = np.linspace(0.26, 0.9, 12)
        values = []
        for theta0 in grid:
            report = breiman_bound(MarginProfile(np.ones(1000)), float(theta0), hspace=500,
                                   n=1000, delta=0.05)
            assert report.applicable
            values.append(report.value)
        assert all(a > b for a, b in zip(values, values[1:]))

    _check(10, "vote-risk identity and minimum-margin bound monotonicity", run, capsys)
