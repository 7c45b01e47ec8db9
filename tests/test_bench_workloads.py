"""Step 0 of every benchmark workload runs in-process and passes its gate.

The benchmark reads the package's simulation records, its CLI output fields
and `bounds.gibbs_risk`, so a package change can break the benchmark
without breaking any other test.  Each workload runs as perfbench/worker.py
runs it: seed 0, inside `workload.loop()`.  perfbench/ goes on sys.path
with bytecode writing off, so nothing is written under it.
"""
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("boost-lp", "boost-fit", "snapshot-score")


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads


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
