"""The margin LPs of the benchmark's `boost-lp` recipe.

`boost-lp` calls `run_experiment` on pima-like data (`bench_data.pima_like`,
the set `perfbench/inputs.py` rebuilds) with AdaBoost T=100, trees of depth
2 with at most 4 leaves, the schemes uws, pws:0.05 and sm1, and two
simulations per call.  The master seed of the call for input j of
benchmark seed s is drawn from SeedSequence([s, j]), j < 4.  This module
repeats that recipe for given master seeds, on pima-like data or another
data set, and catches what the benchmark's gate reads: every dual LP that
`reweight._margin_lp` hands the solver, and every `apply_scheme` result.
"""
import contextlib

import numpy as np

from margin_forge import harness, reweight
from margin_forge.cart import TreeParams
from margin_forge.harness import ExperimentConfig, run_experiment
from margin_forge.reweight import parse_spec

from bench_data import pima_like

SCHEMES = ("uws", "pws:0.05", "sm1")
POOL = 4


def master_seeds(bench_seed: int, pool: int = POOL) -> list[int]:
    """The master seeds of one benchmark seed's inputs, in input order."""
    return [int(np.random.SeedSequence([bench_seed, j]).generate_state(1)[0])
            for j in range(pool)]


def config(master_seed: int, dataset=None) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=pima_like() if dataset is None else dataset,
        schemes=tuple(parse_spec(s) for s in SCHEMES), method="adaboost", n_trees=100,
        tree_params=TreeParams(max_depth=2, max_leaves=4), simulations=2, seed=master_seed)


@contextlib.contextmanager
def _wrapped(module, name, wrapper):
    real = getattr(module, name)
    setattr(module, name, wrapper(real))
    try:
        yield
    finally:
        setattr(module, name, real)


def run(master_seed: int, dataset=None):
    """One benchmark step: the report, every dual LP in solve order, and
    each simulation's `apply_scheme` results in scheme order."""
    problems, results = [], []

    def catch_problem(solve):
        def spy(problem):
            problems.append(problem)
            return solve(problem)
        return spy

    def catch_results(apply):
        def spy(spec, matrix, alpha):
            result = apply(spec, matrix, alpha)
            results[-1].append(result)
            return result
        return spy

    def new_simulation(simulate):
        def spy(config_, index):
            results.append([])
            return simulate(config_, index)
        return spy

    with _wrapped(reweight, "solve", catch_problem), \
            _wrapped(harness, "apply_scheme", catch_results), \
            _wrapped(harness, "run_one_simulation", new_simulation):
        report = run_experiment(config(master_seed, dataset))
    return report, problems, results


def margin_lps(master_seed: int, dataset=None) -> list:
    """The dual margin LPs of one benchmark step, in solve order."""
    return run(master_seed, dataset)[1]
