"""Repeated-simulation driver comparing ensembles against reweighted variants.

Each simulation derives its own seed from (master seed, simulation index),
draws a stratified train/test split, trains one baseline ensemble, applies
every requested reweighting scheme to that same set of trees, and scores
baseline and reweighted votes on the same held-out rows.  Aggregation then
pairs the per-simulation test errors in t-tests, whose two-sided tail for the
integer df = simulations - 1 is the finite Abramowitz & Stegun sum in
theta = atan(|t| / sqrt(df)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .cart import TreeParams
from .dataset_io import Dataset, DatasetError, check_paired, stratified_split
from .ensemble import (
    METHODS,
    EnsembleError,
    EnsembleModel,
    adaboost,
    bagging,
    prediction_matrix,
    random_forest,
)
from .margins import cmd, compute_margins, margin_improvement, training_error_from_margins
from .reweight import RewSpec, apply_scheme
from .simplex import SimplexError

TABLE_FAMILIES = ("improve", "pws", "reduction")

_METHOD_LABELS = {"adaboost": "AdaBoost", "random-forest": "RF", "bagging": "Bagging"}

# data, training and LP problems abort a single simulation; any other
# exception, a failed self-check of a margin LP among them, is a bug and
# ends the run
_SIM_ERRORS = (DatasetError, EnsembleError, SimplexError)

_SUBSAMPLE_STREAM = 977


class ExperimentError(RuntimeError):
    pass


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with integer df >= 1.

    The finite sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even
    df) in theta = atan(|t| / sqrt(df)) give the central area A, at most
    df/2 terms; the tail is 1 - A.
    """
    if not isinstance(df, numbers.Integral):
        raise ValueError("df must be an integer")
    if df < 1:
        raise ValueError("df must be at least 1")
    if math.isnan(t):
        raise ValueError("t statistic must be a number")
    q = df + t * t
    if math.isinf(q):
        return 0.0  # t * t overflowed: |t| > 1e154, whose tail is below 1e-150
    sin = abs(t) / math.sqrt(q)
    cos2 = df / q
    odd = df % 2
    # A = sin * (1 + (1/2)cos2 + (1*3)/(2*4)cos2^2 + ...) for even df and
    # (2/pi)(theta + sin*cos*(1 + (2/3)cos2 + (2*4)/(3*5)cos2^2 + ...)) for
    # odd df, the last power of cos being df - 2 in both
    term, total = 1.0, 0.0
    for j in range(1 + odd, df, 2):
        total += term
        term *= cos2 * j / (j + 1)
    if odd:
        area = 2.0 / math.pi * (math.atan2(abs(t), math.sqrt(df))
                                + sin * math.sqrt(cos2) * total)
    else:
        area = sin * total
    return min(1.0, max(0.0, 1.0 - area))


@dataclass(frozen=True)
class PairedTResult:
    t: float
    p: float
    df: int
    winner: str | None   # side with the significantly smaller mean, "a" or "b"


def paired_t_test(a, b, alpha_level: float = 0.05) -> PairedTResult:
    """Classical paired t-test on the differences a - b.

    The winner is the sample with the significantly smaller mean, None when
    the two-sided p-value is not below alpha_level.  Identical samples give
    t = 0 and p = 1; a constant nonzero difference gives an infinite t and
    p = 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("need two equal-length one-dimensional samples")
    if a.size < 2:
        raise ValueError("need at least 2 paired observations")
    if not 0.0 < alpha_level < 1.0:
        raise ValueError("alpha_level must lie in (0, 1)")
    d = a - b
    d_bar = float(d.mean())
    s_d = float(d.std(ddof=1))
    df = d.size - 1
    if s_d == 0.0:
        if d_bar == 0.0:
            return PairedTResult(0.0, 1.0, df, None)
        t = math.inf if d_bar > 0 else -math.inf
        return PairedTResult(t, 0.0, df, "b" if d_bar > 0 else "a")
    t = d_bar * math.sqrt(d.size) / s_d
    p = t_two_sided_p(t, df)
    winner = None
    if p < alpha_level:
        winner = "b" if d_bar > 0 else "a"
    return PairedTResult(float(t), float(p), df, winner)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one repeated-simulation comparison run."""

    dataset: Dataset
    schemes: tuple[RewSpec, ...]
    method: str = "adaboost"
    n_trees: int = 100
    tree_params: TreeParams = field(default_factory=TreeParams)
    simulations: int = 30
    train_fraction: float = 0.7
    alpha_level: float = 0.05
    seed: int = 0
    m_try: int | None = None
    test_dataset: Dataset | None = None
    freeze_split: bool = False
    freeze_ensemble: bool = False
    max_rows: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.schemes:
            raise ValueError("need at least one reweighting scheme")
        if not all(isinstance(s, RewSpec) for s in self.schemes):
            raise ValueError("schemes must be RewSpec instances")
        labels = [s.label for s in self.schemes]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate scheme labels")
        if self.n_trees < 1:
            raise ValueError("n_trees must be positive")
        if self.simulations < 2:
            raise ValueError("need at least 2 simulations for paired tests")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError("alpha_level must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.m_try is not None:
            if self.method != "random-forest":
                raise ValueError("m_try only applies to random-forest")
            p = self.dataset.n_features
            if not 1 <= self.m_try <= p:
                raise ValueError(f"m_try must lie in [1, {p}]")
        if self.max_rows is not None and self.max_rows < 4:
            raise ValueError("max_rows must be at least 4")
        if self.test_dataset is not None:
            check_paired(self.dataset, self.test_dataset)


@dataclass(frozen=True)
class SimulationRecord:
    """Outcome of one simulation; maps are keyed by scheme label.

    A scheme that reported itself infeasible appears in `feasible` only; a
    simulation that aborted carries the error text in `failure` and NaN for
    the baseline error.
    """

    seed: int
    failure: str | None
    baseline_error: float
    scheme_errors: dict[str, float]
    mean_improvements: dict[str, float]
    min_improvements: dict[str, float]
    variance_reductions: dict[str, float]
    range_reductions: dict[str, float]
    feasible: dict[str, bool]


@dataclass(frozen=True)
class SchemeSummary:
    """Aggregated comparison of one scheme against the baseline ensemble."""

    label: str
    feasible_count: int
    mean_error: float
    mean_improvement: float
    min_improvement: float
    variance_reduction: float
    range_reduction: float
    t_statistic: float
    p_value: float
    winner: str   # "baseline", the scheme label, or "none"


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[SimulationRecord, ...]
    baseline_error: float
    summaries: tuple[SchemeSummary, ...]
    resampling: str

    @property
    def successes(self) -> int:
        return sum(1 for r in self.records if r.failure is None)


def derived_seed(master: int, sim: int) -> int:
    """Deterministic per-simulation seed mixed from the master seed and index."""
    seq = np.random.SeedSequence([master, sim])
    return int(seq.generate_state(1, np.uint64)[0])


def simulation_rows(config: ExperimentConfig) -> Dataset:
    """The rows every simulation draws from: the data set, subsampled to max_rows."""
    data, limit = config.dataset, config.max_rows
    if limit is None or data.n_rows <= limit:
        return data
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SUBSAMPLE_STREAM]))
    keep = np.sort(rng.permutation(data.n_rows)[:limit])
    return data.take(keep, name=f"{data.name}/sub{limit}")


def _resampling_note(config: ExperimentConfig) -> str:
    if config.test_dataset is not None:
        split = "designated test set, no split resampling"
    elif config.freeze_split:
        split = "split frozen across simulations"
    else:
        split = "split resampled per simulation"
    if config.freeze_ensemble:
        ens = "ensemble randomness frozen"
    else:
        ens = "ensemble randomness resampled per simulation"
    n = config.dataset.n_rows
    if config.max_rows is not None and n > config.max_rows:
        return f"{split}; {ens}; subsampled to {config.max_rows} of {n} rows"
    return f"{split}; {ens}"


def fit_baseline(config: ExperimentConfig, train: Dataset, seed: int) -> EnsembleModel:
    """Train the configured baseline ensemble on the given rows."""
    if config.method == "adaboost":
        return adaboost(train, config.n_trees, config.tree_params)
    if config.method == "random-forest":
        return random_forest(train, config.n_trees, m_try=config.m_try,
                             params=config.tree_params, seed=seed)
    return bagging(train, config.n_trees, params=config.tree_params, seed=seed)


def _error_from_weights(matrix, weights) -> float:
    profile = compute_margins(matrix, weights)
    return training_error_from_margins(profile, matrix.labels)


def run_one_simulation(config: ExperimentConfig, sim: int) -> SimulationRecord:
    """Run a single simulation; data, ensemble and LP errors become a failure record."""
    sim_seed = derived_seed(config.seed, sim)
    try:
        data = simulation_rows(config)
        if config.test_dataset is not None:
            train, test = data, config.test_dataset
        else:
            split_seed = config.seed if config.freeze_split else sim_seed
            train, test = stratified_split(data, config.train_fraction, split_seed)
        ens_seed = config.seed if config.freeze_ensemble else sim_seed
        model = fit_baseline(config, train, ens_seed)
        alpha = model.vote_weights
        train_matrix = model.train_matrix
        test_matrix = prediction_matrix(model, test)
        baseline = _error_from_weights(test_matrix, alpha)
        errors: dict[str, float] = {}
        mean_imp: dict[str, float] = {}
        min_imp: dict[str, float] = {}
        var_red: dict[str, float] = {}
        range_red: dict[str, float] = {}
        feasible: dict[str, bool] = {}
        for spec in config.schemes:
            result = apply_scheme(spec, train_matrix, alpha)
            feasible[result.scheme] = bool(result.feasible)
            if not result.feasible:
                continue
            errors[result.scheme] = _error_from_weights(test_matrix, result.weights)
            lift = margin_improvement(result.old_profile, result.new_profile)
            mean_imp[result.scheme] = lift.mean
            min_imp[result.scheme] = lift.min
            var_red[result.scheme] = result.variance_reduction
            range_red[result.scheme] = result.range_reduction
        return SimulationRecord(sim_seed, None, baseline, errors, mean_imp,
                                min_imp, var_red, range_red, feasible)
    except _SIM_ERRORS as exc:
        note = f"{type(exc).__name__}: {exc}"
        return SimulationRecord(sim_seed, note, float("nan"), {}, {}, {}, {}, {}, {})


def _mean(values) -> float:
    vals = list(values)
    return float(np.mean(vals)) if vals else float("nan")


def _summarize(config: ExperimentConfig,
               records: tuple[SimulationRecord, ...]) -> tuple[float, tuple[SchemeSummary, ...]]:
    ok = [r for r in records if r.failure is None]
    baseline = _mean(r.baseline_error for r in ok)
    out = []
    for spec in config.schemes:
        label = spec.label
        usable = [r for r in ok if label in r.scheme_errors]
        t_stat, p_value, winner = float("nan"), float("nan"), "none"
        if len(usable) >= 2:
            verdict = paired_t_test([r.scheme_errors[label] for r in usable],
                                    [r.baseline_error for r in usable],
                                    config.alpha_level)
            t_stat, p_value = verdict.t, verdict.p
            if verdict.winner == "a":
                winner = label
            elif verdict.winner == "b":
                winner = "baseline"
        out.append(SchemeSummary(
            label=label,
            feasible_count=len(usable),
            mean_error=_mean(r.scheme_errors[label] for r in usable),
            mean_improvement=_mean(r.mean_improvements[label] for r in usable),
            min_improvement=_mean(r.min_improvements[label] for r in usable),
            variance_reduction=_mean(r.variance_reductions[label] for r in usable),
            range_reduction=_mean(r.range_reductions[label] for r in usable),
            t_statistic=t_stat,
            p_value=p_value,
            winner=winner,
        ))
    return baseline, tuple(out)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full simulation loop and aggregate per-scheme comparisons.

    Deterministic given the config: every simulation reruns identically under
    the same master seed.  Fails when fewer than 2 simulations succeed.
    """
    records = tuple(run_one_simulation(config, s) for s in range(config.simulations))
    ok = sum(1 for r in records if r.failure is None)
    if ok < 2:
        notes = "; ".join(sorted({r.failure for r in records if r.failure}))
        raise ExperimentError(
            f"only {ok} of {config.simulations} simulations succeeded ({notes})")
    baseline, summaries = _summarize(config, records)
    return ExperimentReport(config=config, records=records, baseline_error=baseline,
                            summaries=summaries, resampling=_resampling_note(config))


def export_cmd_series(model: EnsembleModel, data: Dataset,
                      checkpoints=(50, 200, 500)) -> dict[int, list[tuple[float, float]]]:
    """Cumulative margin distribution of each leading-prefix ensemble.

    Every tree predicts once: the prefix of k learners is the leading k rows
    of the full matrix, voted by the leading k raw alphas renormalized, as an
    EnsembleModel of those learners would weight them.  Checkpoints past the
    learner count score the full ensemble.  Keys are the requested
    checkpoints; values are (threshold, cumulative fraction) rows.
    """
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    points = sorted({int(c) for c in checkpoints})
    if points[0] < 1:
        raise ValueError("checkpoints must be positive")
    full = prediction_matrix(model, data)
    series = {}
    for count in points:
        a = model.raw_alphas[:count]
        series[count] = cmd(compute_margins(full.leading(a.size), a / a.sum()))
    return series


def _cell(value: float, mark: str = "") -> str:
    if math.isnan(value):
        return "n/a"
    return f"{value:.4f}{mark}"


def check_table_family(family: str, labels) -> None:
    """Raise ValueError unless the scheme labels fill the family's columns:
    exactly three pws schemes for pws, exactly one scheme otherwise."""
    if family not in TABLE_FAMILIES:
        raise ValueError(f"table family must be one of {TABLE_FAMILIES}")
    if family == "pws":
        if len(labels) != 3 or any(label.split(":")[0] != "pws" for label in labels):
            raise ValueError("the pws table needs exactly three pws schemes")
    elif len(labels) != 1:
        raise ValueError(f"the {family} table needs exactly one scheme")


def render_table(report: ExperimentReport, family: str = "improve") -> str:
    """Two-line comparison table in one of the standard column layouts.

    improve:   baseline error, scheme error, mean and min margin improvement;
               a star marks the significantly better test error.
    pws:       baseline error plus three percentile-scheme errors; a star or
               minus on a scheme marks significantly better or worse.
    reduction: baseline error, scheme error, variance and range reduction,
               star convention as in improve.
    """
    summaries = report.summaries
    check_table_family(family, [s.label for s in summaries])
    base_label = _METHOD_LABELS[report.config.method]
    name = report.config.dataset.name
    if family == "pws":
        header = ["Data Set", base_label] + [s.label.upper() for s in summaries]
        row = [name, _cell(report.baseline_error)]
        for s in summaries:
            mark = "*" if s.winner == s.label else "-" if s.winner == "baseline" else ""
            row.append(_cell(s.mean_error, mark))
    else:
        s = summaries[0]
        base_mark = "*" if s.winner == "baseline" else ""
        scheme_mark = "*" if s.winner == s.label else ""
        if family == "improve":
            header = ["Data Set", base_label, s.label.upper(), "Mean", "Min"]
            tail = [_cell(s.mean_improvement), _cell(s.min_improvement)]
        else:
            header = ["Data Set", base_label, s.label.upper(), "Var", "Range"]
            tail = [_cell(s.variance_reduction), _cell(s.range_reduction)]
        row = [name, _cell(report.baseline_error, base_mark),
               _cell(s.mean_error, scheme_mark)] + tail
    widths = [max(len(h), len(v)) for h, v in zip(header, row)]
    head = "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()
    body = "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
    return f"{head}\n{body}"


def report_lines(report: ExperimentReport) -> list[str]:
    """Per-simulation records in tab-delimited form, one row per scheme."""

    def g(value: float) -> str:
        return f"{value:.17g}"

    header = ["sim", "seed", "scheme", "feasible", "test_error", "mean_improvement",
              "min_improvement", "variance_reduction", "range_reduction", "note"]
    lines = [f"# {report.resampling}", "\t".join(header)]
    for idx, rec in enumerate(report.records):
        sim, seed = str(idx), str(rec.seed)
        if rec.failure is not None:
            lines.append("\t".join([sim, seed, "baseline", "no",
                                    "", "", "", "", "", rec.failure]))
            continue
        lines.append("\t".join([sim, seed, "baseline", "yes",
                                g(rec.baseline_error), "", "", "", "", ""]))
        for spec in report.config.schemes:
            label = spec.label
            if rec.feasible.get(label, False):
                lines.append("\t".join([
                    sim, seed, label, "yes",
                    g(rec.scheme_errors[label]),
                    g(rec.mean_improvements[label]),
                    g(rec.min_improvements[label]),
                    g(rec.variance_reductions[label]),
                    g(rec.range_reductions[label]), ""]))
            else:
                lines.append("\t".join([sim, seed, label, "no",
                                        "", "", "", "", "", ""]))
    return lines
