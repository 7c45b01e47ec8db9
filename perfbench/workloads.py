"""The three workloads, each a closed loop of operations with a correctness gate.

A workload is built once in set-up.  `run(j)` performs step j of the loop
and returns one `Outcome` per operation in it.  Step j runs input
j % `pool`, so a run covers the same inputs whatever the program's speed,
and a repeated input must give identical results.  The quality metrics and
the fingerprint come from the first `pool` steps.
"""
import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from margin_forge import bounds, cli, dataset_io, ensemble, harness, margins
from margin_forge.cart import TreeParams
from margin_forge.reweight import parse_spec

from inputs import cloud

TREES = TreeParams(max_depth=2, max_leaves=4)
MM_SCHEMES = ("uws", "ews", "pws")   # the margin-maximising family: no margin may drop
NO_DROP_TOL = -1e-7


@dataclass
class Outcome:
    """One operation: its result rows, the gate's complaints, and the
    quality values it contributes (baseline error, then one (error, mean
    margin gain) pair per feasible scheme)."""

    rows: list
    problems: list = field(default_factory=list)
    baseline_error: float = math.nan
    reweighted: list = field(default_factory=list)


def _g(value):
    return f"{value:.17g}"


class _SchemeGate:
    """Keeps each simulation's `apply_scheme` results for the weight check.

    Installed on `margin_forge.harness` for the whole loop, traced or
    not, because `run_experiment` returns no weights.  It adds two Python
    calls per scheme and per simulation.
    """

    def __init__(self):
        self.per_sim = []

    @contextlib.contextmanager
    def installed(self):
        sim, apply = harness.run_one_simulation, harness.apply_scheme

        def run_one_simulation(config, index):
            self.per_sim.append([])
            return sim(config, index)

        def apply_scheme(spec, matrix, alpha):
            result = apply(spec, matrix, alpha)
            self.per_sim[-1].append(result)
            return result

        harness.run_one_simulation, harness.apply_scheme = run_one_simulation, apply_scheme
        try:
            yield self
        finally:
            harness.run_one_simulation, harness.apply_scheme = sim, apply


class BoostWorkload:
    """One operation is one simulation of `run_experiment`: split, AdaBoost
    T=100 with depth-2, 4-leaf trees, every scheme, scoring.  A step is one
    `run_experiment` call with two simulations, the fewest it accepts, and
    its master seed comes from (benchmark seed, input).  The pool is about
    what one 30-second run covers at the time the benchmark was written."""

    ops_per_step = 2

    def __init__(self, shape, schemes, pool, seed):
        self.data = cloud(shape)
        self.schemes = tuple(parse_spec(s) for s in schemes)
        self.pool = pool
        self.seed = seed
        self.gate = _SchemeGate()

    def loop(self):
        return self.gate.installed()

    def run(self, j):
        master = int(np.random.SeedSequence([self.seed, j % self.pool]).generate_state(1)[0])
        config = harness.ExperimentConfig(
            dataset=self.data, schemes=self.schemes, method="adaboost", n_trees=100,
            tree_params=TREES, simulations=self.ops_per_step, seed=master)
        self.gate.per_sim.clear()
        try:
            report = harness.run_experiment(config)
        except harness.ExperimentError as exc:
            return [Outcome([], [f"run_experiment: {exc}"])
                    for _ in range(self.ops_per_step)]
        return [self._check(rec, results)
                for rec, results in zip(report.records, self.gate.per_sim)]

    def _check(self, rec, results):
        if rec.failure is not None:
            return Outcome([], [f"simulation failed: {rec.failure}"])
        out = Outcome([f"baseline\t{_g(rec.baseline_error)}"],
                      baseline_error=rec.baseline_error)
        for result in results:
            if result.feasible and abs(float(np.sum(result.weights)) - 1.0) > 1e-9:
                out.problems.append(f"{result.scheme}: weights sum to {np.sum(result.weights)}")
        for spec in self.schemes:
            label = spec.label
            if not rec.feasible.get(label, False):
                out.rows.append(f"{label}\tinfeasible")
                continue
            if spec.scheme in MM_SCHEMES and rec.min_improvements[label] < NO_DROP_TOL:
                out.problems.append(f"{label}: a margin dropped by {rec.min_improvements[label]}")
            out.rows.append("\t".join((label, _g(rec.scheme_errors[label]),
                                       _g(rec.mean_improvements[label]),
                                       _g(rec.min_improvements[label]))))
            out.reweighted.append((rec.scheme_errors[label], rec.mean_improvements[label]))
        return out


def _fields(text):
    return {line.split("\t", 1)[0]: line.split("\t")[1:] for line in text.splitlines() if line}


class SnapshotWorkload:
    """One operation is one scoring pass over a saved random forest and a
    scoring file, through `cli.main` and the library calls it shares.
    Every pass reads the same two files, so every pass must agree."""

    ops_per_step = 1
    pool = 1
    CHECKPOINTS = (50, 200, 500)

    def __init__(self, seed, workdir):
        workdir = Path(workdir)
        forest = ensemble.random_forest(cloud("ionosphere-like"), 500, params=TREES, seed=seed)
        self.model_path = str(workdir / "forest.json")
        ensemble.save_model(forest, self.model_path)
        self.data_path = str(workdir / "score.csv")
        dataset_io.write_dataset(cloud("ionosphere-like", rows=20000, data_seed=1),
                                 self.data_path)
        self.cmd_path = str(workdir / "cmd.tsv")

    def loop(self):
        return contextlib.nullcontext()

    def _cli(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def run(self, j):
        problems = []
        code, _ = self._cli("bounds", "--model", self.model_path, "--data", self.data_path,
                            "--theta", "0.1", "--vc", "6", "--hspace", "500")
        if code != 0:
            problems.append(f"bounds exited {code}")
        code, text = self._cli("reweight", "--model", self.model_path,
                               "--data", self.data_path, "--scheme", "sm2")
        if code != 0:
            return [Outcome([], problems + [f"reweight exited {code}"])]
        sm2 = _fields(text)
        weights = np.array([float(v) for v in sm2["weights"]])

        model = ensemble.load_model(self.model_path)
        data = dataset_io.load_dataset(self.data_path)
        matrix = ensemble.prediction_matrix(model, data)
        profile = margins.compute_margins(matrix, model.vote_weights)
        germain = bounds.germain_bound(matrix, model.vote_weights)
        gibbs = bounds.gibbs_risk(matrix, model.vote_weights)
        margins.export_cmd(profile, self.cmd_path)
        series = harness.export_cmd_series(model, data, self.CHECKPOINTS)

        if abs(germain.inputs["gibbs_risk"] - gibbs) > 1e-12:
            problems.append(f"germain Gibbs risk {germain.inputs['gibbs_risk']} != {gibbs}")
        if abs(weights.sum() - 1.0) > 1e-9:
            problems.append(f"sm2 weights sum to {weights.sum()}")
        original_sse = profile.n * profile.variance
        if float(sm2["objective"][0]) > original_sse * (1 + 1e-12) + 1e-12:
            problems.append(f"sm2 squared error {sm2['objective'][0]} > original {original_sse}")
        if sorted(series) != list(self.CHECKPOINTS) or any(
                rows[-1][1] != 1.0 for rows in series.values()):
            problems.append("export_cmd_series did not end every series at 1")

        baseline = margins.training_error_from_margins(profile, data.labels)
        reweighted = margins.training_error_from_margins(
            margins.compute_margins(matrix, weights), data.labels)
        gain = float(sm2["mean_improvement"][0])
        rows = [f"baseline\t{_g(baseline)}",
                f"sm2\t{_g(reweighted)}\t{_g(gain)}\t{sm2['min_improvement'][0]}"]
        return [Outcome(rows, problems, baseline, [(reweighted, gain)])]


WORKLOADS = {
    "boost-lp": lambda seed, workdir: BoostWorkload(
        "pima-like", ("uws", "pws:0.05", "sm1"), pool=4, seed=seed),
    "boost-fit": lambda seed, workdir: BoostWorkload(
        "sonar-like", ("sm2",), pool=16, seed=seed),
    "snapshot-score": SnapshotWorkload,
}
