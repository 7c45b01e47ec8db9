import dataclasses
import math

import numpy as np
import pytest

from margin_forge import harness, reweight
from margin_forge.cart import TreeParams
from margin_forge.dataset_io import Dataset, generate_synthetic, stratified_split
from margin_forge.ensemble import adaboost, prediction_matrix, random_forest
from margin_forge.harness import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    SchemeSummary,
    SimulationRecord,
    derived_seed,
    export_cmd_series,
    paired_t_test,
    render_table,
    report_lines,
    run_experiment,
    run_one_simulation,
    simulation_rows,
    t_two_sided_p,
    training_row_count,
)
from margin_forge.margins import cmd, compute_margins, training_error_from_margins
from margin_forge.reweight import SelfCheckError, apply_scheme, parse_spec
from prefix_oracle import truncate_model
from vote_oracle import test_error as error_rate


def tiny_config(**overrides):
    defaults = dict(
        dataset=generate_synthetic("two-gaussians", 80, 0.8, 5),
        schemes=(parse_spec("uws"),),
        method="adaboost",
        n_trees=8,
        simulations=3,
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------- t machinery


def test_t_p_edge_values():
    assert t_two_sided_p(0.0, 5) == 1.0
    assert t_two_sided_p(math.inf, 5) == 0.0
    assert t_two_sided_p(-math.inf, 5) == 0.0
    assert t_two_sided_p(1e200, 4) == 0.0  # t * t overflows
    with pytest.raises(ValueError):
        t_two_sided_p(1.0, 0)
    with pytest.raises(ValueError, match="integer"):
        t_two_sided_p(1.0, 2.5)
    with pytest.raises(ValueError):
        t_two_sided_p(math.nan, 5)


def test_paired_t_hand_case():
    r = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert r.t == 2.0 * math.sqrt(3.0)
    assert r.df == 2
    # closed form for df = 2: p = 1 - sqrt(t^2 / (t^2 + 2))
    assert abs(r.p - (1.0 - math.sqrt(6.0 / 7.0))) < 1e-14


def test_paired_t_identical_samples():
    r = paired_t_test([0.3, 0.4, 0.5], [0.3, 0.4, 0.5])
    assert r.t == 0.0 and r.p == 1.0 and r.winner is None


def test_paired_t_constant_nonzero_difference():
    r = paired_t_test([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    assert math.isinf(r.t) and r.t > 0
    assert r.p == 0.0 and r.winner == "b"


def test_paired_t_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    fwd = paired_t_test(a, b)
    rev = paired_t_test(b, a)
    assert fwd.t == -rev.t
    assert fwd.p == rev.p
    assert {fwd.winner, rev.winner} in ({None}, {"a", "b"})


def test_paired_t_winner_is_smaller_mean():
    a = [0.10, 0.11, 0.12, 0.10]
    b = [0.20, 0.21, 0.22, 0.20]
    assert paired_t_test(a, b).winner == "a"
    assert paired_t_test(b, a).winner == "b"


def test_paired_t_validation():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0, 2.0], alpha_level=1.5)


def quad_oracle_p(t: float, df: int) -> float:
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    nu = mp.mpf(df)
    c = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))

    def density(u):
        return c * (1 + u * u / nu) ** (-(nu + 1) / 2)

    tail = mp.quad(density, [mp.mpf(abs(t)), mp.inf])
    return float(2 * tail)


def test_t_p_matches_quadrature_oracle():
    for df in (1, 2, 3, 5, 10, 30, 120):
        for t in (0.25, 1.0, 2.0, 3.4641016151377544, 6.0):
            got = t_two_sided_p(t, df)
            want = quad_oracle_p(t, df)
            assert abs(got - want) < 1e-10, (t, df, got, want)


def test_t_p_matches_mpmath_betainc():
    # the two-sided tail is I_x(df/2, 1/2) at x = df / (df + t^2)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    ts = (0.0, 1e-8, 1e-3, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0)
    for df in [*range(1, 121), 200, 500, 999, 2000]:
        for t in ts:
            x = mp.mpf(df) / (df + mp.mpf(t) ** 2)
            want = float(mp.betainc(mp.mpf(df) / 2, mp.mpf(1) / 2, 0, x, regularized=True))
            got = t_two_sided_p(t, df)
            assert abs(got - want) <= 1e-12, (t, df, got, want)


# ------------------------------------------------------------- configuration


def test_config_validation():
    data = generate_synthetic("two-gaussians", 40, 0.5, 1)
    uws = (parse_spec("uws"),)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=uws, method="stacking")
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=())
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=("uws",))
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=(parse_spec("uws"), parse_spec("uws")))
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=uws, simulations=1)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=uws, train_fraction=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=uws, alpha_level=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=uws, n_trees=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=uws, seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=uws, m_try=2)
    for m_try in (0, 3):  # the data has 2 features
        with pytest.raises(ValueError, match=r"m_try must lie in \[1, 2\]"):
            ExperimentConfig(dataset=data, schemes=uws, method="random-forest", m_try=m_try)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=uws, max_rows=2)
    other = generate_synthetic("ring-vs-disk", 40, 0.1, 1)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=data, schemes=uws,
                         test_dataset=Dataset("t", np.zeros((4, 9)),
                                              np.array([1, -1, 1, -1])))
    # ring-vs-disk shares the feature count, so pairing passes
    ExperimentConfig(dataset=data, schemes=uws, test_dataset=other)


def test_scheme_list_coerced_to_tuple():
    config = tiny_config(schemes=[parse_spec("uws"), parse_spec("ews:5")])
    assert isinstance(config.schemes, tuple)


# ------------------------------------------------------------ the simulation


def test_run_experiment_is_deterministic():
    config = tiny_config(simulations=2)
    first = run_experiment(config)
    second = run_experiment(config)
    assert len(first.records) == 2
    for a, b in zip(first.records, second.records):
        assert a.seed == b.seed
        assert a.baseline_error == b.baseline_error
        assert a.scheme_errors == b.scheme_errors
        assert a.mean_improvements == b.mean_improvements
        assert a.min_improvements == b.min_improvements
    assert first.baseline_error == second.baseline_error


def test_uws_min_improvement_never_negative():
    report = run_experiment(tiny_config(simulations=4))
    for rec in report.records:
        assert rec.failure is None
        assert rec.min_improvements["uws"] >= -1e-7


def test_aggregates_are_recomputed_means():
    config = tiny_config(simulations=4, schemes=(parse_spec("uws"), parse_spec("ews:5")))
    report = run_experiment(config)
    ok = [r for r in report.records if r.failure is None]
    assert abs(report.baseline_error - np.mean([r.baseline_error for r in ok])) <= 1e-12
    for summary in report.summaries:
        errs = [r.scheme_errors[summary.label] for r in ok if summary.label in r.scheme_errors]
        assert summary.feasible_count == len(errs)
        assert abs(summary.mean_error - np.mean(errs)) <= 1e-12
        lifts = [r.mean_improvements[summary.label] for r in ok
                 if summary.label in r.mean_improvements]
        assert abs(summary.mean_improvement - np.mean(lifts)) <= 1e-12


def test_record_recomputable_from_seed():
    config = tiny_config(simulations=3)
    report = run_experiment(config)
    sim = 1
    rec = report.records[sim]
    assert rec.seed == derived_seed(config.seed, sim)
    train, test = stratified_split(config.dataset, config.train_fraction, rec.seed)
    model = adaboost(train, config.n_trees, config.tree_params)
    assert error_rate(model, test) == rec.baseline_error
    result = apply_scheme(config.schemes[0], prediction_matrix(model, train),
                          model.vote_weights)
    profile = compute_margins(prediction_matrix(model, test), result.weights)
    assert training_error_from_margins(profile, test.labels) == rec.scheme_errors["uws"]


def test_simulation_predicts_only_the_test_rows(monkeypatch):
    # the training votes come with the fitted model, so only the test rows are predicted
    seen = []

    def spy(model, data):
        seen.append(data)
        return prediction_matrix(model, data)

    monkeypatch.setattr(harness, "prediction_matrix", spy)
    config = tiny_config()
    rec = run_one_simulation(config, 0)
    assert rec.failure is None
    _, test = stratified_split(config.dataset, config.train_fraction, rec.seed)
    assert len(seen) == 1
    assert np.array_equal(seen[0].features, test.features)
    assert np.array_equal(seen[0].labels, test.labels)


def test_frozen_split_repeats_adaboost_exactly():
    config = tiny_config(simulations=3, freeze_split=True)
    report = run_experiment(config)
    baselines = {r.baseline_error for r in report.records}
    lifts = {r.mean_improvements["uws"] for r in report.records}
    assert len(baselines) == 1 and len(lifts) == 1


def test_designated_test_set_varies_only_ensemble():
    train = generate_synthetic("ring-vs-disk", 90, 0.3, 2)
    test = generate_synthetic("ring-vs-disk", 60, 0.3, 9)
    config = tiny_config(dataset=train, test_dataset=test, method="random-forest",
                         n_trees=5, simulations=4)
    report = run_experiment(config)
    assert "designated test set" in report.resampling
    assert len({r.baseline_error for r in report.records}) > 1
    frozen = tiny_config(dataset=train, test_dataset=test, method="random-forest",
                         n_trees=5, simulations=3, freeze_ensemble=True)
    report = run_experiment(frozen)
    assert len({r.baseline_error for r in report.records}) == 1


def test_single_class_data_fails_every_simulation():
    rng = np.random.default_rng(0)
    data = Dataset("one-sided", rng.normal(size=(20, 3)), np.ones(20))
    config = tiny_config(dataset=data)
    rec = run_one_simulation(config, 0)
    assert rec.failure is not None
    assert math.isnan(rec.baseline_error)
    with pytest.raises(ExperimentError):
        run_experiment(config)


def test_package_bug_is_not_a_failure_row(monkeypatch):
    def broken(matrix, weights):
        raise ValueError("shape bug")

    monkeypatch.setattr(harness, "compute_margins", broken)
    with pytest.raises(ValueError, match="shape bug"):
        run_one_simulation(tiny_config(), 0)


def test_failed_margin_lp_check_ends_the_run(monkeypatch):
    # the second margin LP's prices are halved, so its weights sum to 1/2:
    # that is a fault of the package, so the run stops instead of losing one row
    calls = []
    real = reweight.solve

    def spy(problem):
        calls.append(1)
        solution = real(problem)
        if len(calls) == 2:
            solution = dataclasses.replace(solution, prices=solution.prices / 2)
        return solution

    monkeypatch.setattr(reweight, "solve", spy)
    with pytest.raises(SelfCheckError, match="breaks its eq constraints by 5.000e-01"):
        run_experiment(tiny_config())
    assert len(calls) == 2


def spy_split_sizes(monkeypatch):
    """Record the (train, test) row counts of every split the harness draws."""
    sizes = []
    split = harness.stratified_split

    def spy(rows, train_fraction, seed):
        train, test = split(rows, train_fraction, seed)
        sizes.append((train.n_rows, test.n_rows))
        return train, test

    monkeypatch.setattr(harness, "stratified_split", spy)
    return sizes


def test_desk_scale_subsamples_large_datasets(monkeypatch):
    data = generate_synthetic("two-gaussians", 600, 0.8, 3)
    sizes = spy_split_sizes(monkeypatch)
    report = run_experiment(tiny_config(dataset=data, max_rows=100, simulations=2))
    assert report.successes == 2
    assert sizes == [(71, 29)] * 2  # the stratified 70/30 split of 100 rows
    assert report.resampling.endswith("; subsampled to 100 of 600 rows")


def test_rows_are_subsampled_only_on_request(monkeypatch):
    data = generate_synthetic("two-gaussians", 600, 0.8, 3)
    sizes = spy_split_sizes(monkeypatch)
    whole = run_experiment(tiny_config(dataset=data, simulations=2))
    assert sizes == [(420, 180)] * 2  # the stratified 70/30 split of all 600 rows
    assert whole.resampling == ("split resampled per simulation; "
                                "ensemble randomness resampled per simulation")
    # a limit at or above the row count keeps every row and says nothing
    sizes.clear()
    at_limit = run_experiment(tiny_config(dataset=data, max_rows=600, simulations=2))
    assert sizes == [(420, 180)] * 2
    assert at_limit.resampling == whole.resampling


@pytest.mark.parametrize("overrides", [
    {}, {"train_fraction": 0.33}, {"max_rows": 37}, {"max_rows": 37, "freeze_split": True},
    {"test_dataset": generate_synthetic("two-gaussians", 30, 0.8, 6), "max_rows": 50},
])
def test_training_row_count_is_every_simulations_split_size(overrides):
    # an odd class count, so ceil(frac * count) rounds up in each class
    config = tiny_config(dataset=generate_synthetic("two-gaussians", 91, 0.8, 5), **overrides)
    data = simulation_rows(config)
    for sim in range(4):
        if config.test_dataset is not None:
            rows = data.n_rows
        else:
            rows = stratified_split(data, config.train_fraction,
                                    derived_seed(config.seed, sim))[0].n_rows
        assert training_row_count(config) == rows


# ----------------------------------------------------- prefixes and the CMD


def test_export_cmd_series_shape_and_monotonicity():
    data = generate_synthetic("two-gaussians", 200, 1.0, 8)
    model = adaboost(data, 30)
    series = export_cmd_series(model, data, checkpoints=(5, 10, 30))
    assert set(series) == {5, 10, 30}
    for rows in series.values():
        thetas = [t for t, _ in rows]
        fracs = [f for _, f in rows]
        assert thetas == sorted(thetas)
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 1.0


def test_export_cmd_series_clamps_past_the_last_learner():
    data = generate_synthetic("two-gaussians", 100, 0.8, 2)
    model = adaboost(data, 10)
    series = export_cmd_series(model, data, checkpoints=(10, 999))
    assert series[999] == series[10]
    with pytest.raises(ValueError):
        export_cmd_series(model, data, checkpoints=())
    with pytest.raises(ValueError):
        export_cmd_series(model, data, checkpoints=(0, 5))


def test_export_cmd_series_equals_per_prefix_route():
    data = generate_synthetic("two-gaussians", 150, 1.6, 6)
    # the forest's equal raw alphas take the exact vote-count path, scaled by 1/count
    for model in (adaboost(data, 12), random_forest(data, 9, seed=3)):
        T = model.n_learners
        assert T > 3  # the prefixes differ from the full model
        checkpoints = (1, 3, T, T + 5)
        want = {}
        for count in checkpoints:
            sub = truncate_model(model, min(count, T))
            profile = compute_margins(prediction_matrix(sub, data), sub.vote_weights)
            want[count] = cmd(profile)
        assert export_cmd_series(model, data, checkpoints) == want


def test_export_cmd_series_checks_the_full_matrix_once(monkeypatch):
    data = generate_synthetic("two-gaussians", 150, 1.6, 6)
    model = adaboost(data, 12)
    want = export_cmd_series(model, data, (1, 3, 5))
    scans = []

    def counted(name, real):
        def scan(*args, **kwargs):
            scans.append((name, args[0].shape))
            return real(*args, **kwargs)
        return scan

    # int8 entries are checked by their nonzero count, the labels by isin
    for name in ("isin", "count_nonzero"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    assert export_cmd_series(model, data, (1, 3, 5)) == want
    # the full matrix's entries and labels; the prefixes are views of rows already checked
    assert scans == [("count_nonzero", (model.n_learners, data.n_rows)),
                     ("isin", (data.n_rows,))]


# ------------------------------------------------------------------ rendering


def fake_report(summaries, method="random-forest", baseline=0.0773):
    config = tiny_config(method=method,
                         schemes=tuple(parse_spec(s.label) for s in summaries))
    return ExperimentReport(config=config, records=(), baseline_error=baseline,
                            summaries=tuple(summaries), resampling="test stub")


def summary(label, winner="none", error=0.0847, **overrides):
    fields = dict(label=label, feasible_count=10, mean_error=error,
                  mean_improvement=0.0802, min_improvement=0.0065,
                  variance_reduction=0.01, range_reduction=0.10,
                  t_statistic=2.0, p_value=0.04, winner=winner)
    fields.update(overrides)
    return SchemeSummary(**fields)


def test_summary_names_a_scheme_that_beats_the_baseline():
    config = tiny_config(simulations=4)
    # the scheme errs less than the baseline in every simulation
    records = tuple(
        SimulationRecord(seed=s, failure=None, baseline_error=0.3 + 0.01 * s,
                         scheme_errors={"uws": 0.1 + 0.02 * s},
                         mean_improvements={"uws": 0.05}, min_improvements={"uws": 0.0},
                         variance_reductions={"uws": 0.01}, range_reductions={"uws": 0.1},
                         feasible={"uws": True})
        for s in range(4))
    baseline, (uws,) = harness._summarize(config, records)
    assert uws.winner == "uws"
    assert uws.t_statistic < 0 and uws.p_value < config.alpha_level
    report = ExperimentReport(config=config, records=records, baseline_error=baseline,
                              summaries=(uws,), resampling="stub")
    body = render_table(report, "improve").splitlines()[1].split()
    assert body[1:3] == ["0.3150", "0.1300*"]


def test_render_improve_table_columns():
    report = fake_report([summary("uws", winner="baseline")])
    table = render_table(report, "improve")
    head, body = table.splitlines()
    assert head.split() == ["Data", "Set", "RF", "UWS", "Mean", "Min"]
    assert "0.0773*" in body
    assert "0.0847" in body and "0.0847*" not in body
    assert "0.0802" in body and "0.0065" in body


def test_render_improve_star_follows_winner():
    report = fake_report([summary("uws", winner="uws")])
    body = render_table(report, "improve").splitlines()[1]
    assert "0.0847*" in body and "0.0773*" not in body
    report = fake_report([summary("uws", winner="none")])
    assert "*" not in render_table(report, "improve")


def test_render_pws_table_markers():
    rows = [summary("pws:0.05", winner="pws:0.05", error=0.0418),
            summary("pws:0.2", winner="none", error=0.0432),
            summary("pws:0.5", winner="baseline", error=0.0433)]
    table = render_table(fake_report(rows), "pws")
    head, body = table.splitlines()
    assert "PWS:0.05" in head and "PWS:0.2" in head and "PWS:0.5" in head
    assert "0.0418*" in body
    assert "0.0433-" in body
    assert "0.0432" in body and "0.0432*" not in body and "0.0432-" not in body


def test_render_reduction_table_columns():
    report = fake_report([summary("sm1:0.05", winner="baseline")], method="adaboost")
    table = render_table(report, "reduction")
    head, body = table.splitlines()
    assert "AdaBoost" in head and "SM1:0.05" in head
    assert head.split()[-2:] == ["Var", "Range"]
    assert "0.0100" in body and "0.1000" in body


def test_render_table_family_mismatches():
    single = fake_report([summary("uws")])
    with pytest.raises(ValueError):
        render_table(single, "pws")
    with pytest.raises(ValueError):
        render_table(single, "margins")
    two = fake_report([summary("uws"), summary("ews:5")])
    with pytest.raises(ValueError):
        render_table(two, "improve")
    mixed = fake_report([summary("pws:0.05"), summary("pws:0.2"), summary("uws")])
    with pytest.raises(ValueError):
        render_table(mixed, "pws")
    empty = ExperimentReport(config=tiny_config(), records=(), baseline_error=0.1,
                             summaries=(), resampling="stub")
    with pytest.raises(ValueError):
        render_table(empty, "improve")


def test_report_lines_feasibility_and_failures():
    config = tiny_config(schemes=(parse_spec("uws"), parse_spec("sm1:0.1")))
    good = SimulationRecord(seed=7, failure=None, baseline_error=0.125,
                            scheme_errors={"uws": 0.25},
                            mean_improvements={"uws": 0.01},
                            min_improvements={"uws": 0.0},
                            variance_reductions={"uws": -0.002},
                            range_reductions={"uws": 0.0},
                            feasible={"uws": True, "sm1:0.1": False})
    bad = SimulationRecord(seed=9, failure="EnsembleError: no usable learners",
                           baseline_error=float("nan"), scheme_errors={},
                           mean_improvements={}, min_improvements={},
                           variance_reductions={}, range_reductions={}, feasible={})
    report = ExperimentReport(config=config, records=(good, bad), baseline_error=0.125,
                              summaries=(), resampling="split resampled per simulation")
    lines = report_lines(report)
    assert lines[0] == "# split resampled per simulation"
    assert lines[1].startswith("sim\tseed\tscheme")
    assert lines[2].split("\t")[2:5] == ["baseline", "yes", "0.125"]
    assert lines[3].split("\t")[2:4] == ["uws", "yes"]
    sm1 = lines[4].split("\t")
    assert sm1[2:5] == ["sm1:0.1", "no", ""]
    failed = lines[5].split("\t")
    assert failed[3] == "no" and failed[-1] == "EnsembleError: no usable learners"
    assert report.successes == 1
