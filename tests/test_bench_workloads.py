"""Step 0 of every benchmark workload runs in-process and passes its gate.

The benchmark reads the package's simulation records, its CLI output fields
and `bounds.gibbs_risk`, so a package change can break the benchmark
without breaking any other test.  Each workload runs as perfbench/worker.py
runs it: seed 0, inside `workload.loop()`, untraced and, for two of them,
traced.  perfbench/ goes on sys.path with bytecode writing off, so nothing
is written under it.
"""
import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("boost-lp", "boost-fit", "snapshot-score")


def _perfbench(name):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        return importlib.import_module(name)


@pytest.fixture(scope="module")
def workloads():
    return _perfbench("workloads")


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_step_zero_passes_the_gate(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    with workload.loop():
        first = workload.run(0)
        # step `pool` runs step 0's input again, and must give the same rows
        boost = isinstance(workload, workloads.BoostWorkload)
        again = workload.run(workload.pool) if boost else first
    assert len(first) == workload.ops_per_step
    assert [outcome.problems for outcome in first] == [[]] * workload.ops_per_step
    assert all(outcome.rows for outcome in first)
    assert [outcome.rows for outcome in again] == [outcome.rows for outcome in first]


@pytest.mark.parametrize("name, layer", [("boost-lp", "simplex.solves"),
                                         ("snapshot-score", "cli.commands")])
def test_traced_step_zero_reports_every_layer(workloads, name, layer, tmp_path):
    # the spans go around the library calls as perfbench/worker.py's traced
    # run installs them: inside the loop, around one step
    spans = _perfbench("spans")
    tracer = spans.Tracer()
    workload = workloads.WORKLOADS[name](0, tmp_path)
    with workload.loop():
        with tracer.installed():
            outcomes = workload.run(0)
    assert [outcome.problems for outcome in outcomes] == [[]] * workload.ops_per_step
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics[layer] > 0
    with open(PERFBENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {metric["name"] for metric in json.load(fh)["per_layer"]}
    # the worker adds the trace.* metrics itself
    assert set(metrics) | {"trace.ops", "trace.overhead_frac"} == declared
