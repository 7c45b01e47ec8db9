"""One benchmark process: set up a workload, run it in a closed loop for a
fixed time, check every operation, and print one JSON line of results.

run.py starts it with the BLAS thread pool fixed in its environment.  One
caller runs operations back to back; the process starts no threads or
processes of its own.
"""
import time

START = time.perf_counter()   # set-up time counts imports from here on

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback

import numpy as np

import spans
from workloads import WORKLOADS, Outcome

# the block expected to hold the largest self time in the traced run
DOMINANT = {"boost-lp": "simplex.solve", "boost-fit": "cart.fit_tree",
            "snapshot-score": "prediction+parsing"}
GROUPS = {"snapshot-score": dict.fromkeys(
    ("cart.predict", "ensemble.prediction_matrix", "dataset_io.load"), "prediction+parsing")}


def timed_step(workload, j):
    """Run step j; returns (j, outcomes, seconds)."""
    start = time.perf_counter()
    try:
        outcomes = workload.run(j)
    except Exception:   # a crash counts against the step's operations; the loop goes on
        text = traceback.format_exc()
        print(text, file=sys.stderr)
        outcomes = [Outcome([], [text.strip().splitlines()[-1]])
                    for _ in range(workload.ops_per_step)]
    return j, outcomes, time.perf_counter() - start


def closed_loop(workload, seconds):
    """Run steps 0, 1, ... back to back until `seconds` have passed.
    Returns the steps and the elapsed time."""
    steps = []
    start = time.perf_counter()
    while not steps or time.perf_counter() - start < seconds:
        steps.append(timed_step(workload, len(steps)))
    return steps, time.perf_counter() - start


def judge(workload, steps):
    """Gate every operation; steps on the same input must agree."""
    first = {}
    attempted = failed = 0
    for j, outcomes, _ in steps:
        for i, outcome in enumerate(outcomes):
            key = (j % workload.pool, i)
            first.setdefault(key, (j, outcome.rows))
            if outcome.rows != first[key][1]:
                outcome.problems.append(f"differs from step {first[key][0]} on the same input")
            attempted += 1
            if outcome.problems:
                failed += 1
                print(f"# step {j} operation {i} failed: {'; '.join(outcome.problems)}")
    return attempted, failed


def quality(workload, steps):
    """Quality metrics and fingerprint over the first `pool` steps."""
    ops = [(j, i, o) for j, outcomes, _ in steps if j < workload.pool
           for i, o in enumerate(outcomes)]
    digest = hashlib.sha256("\n".join(
        f"{j}\t{i}\t{row}" for j, i, o in ops for row in o.rows).encode()).hexdigest()
    done = [o for _, _, o in ops if not math.isnan(o.baseline_error)]
    reweighted = [pair for o in done for pair in o.reweighted]

    def mean(values):
        return statistics.fmean(values) if values else math.nan

    return {
        "test_error.baseline": mean([o.baseline_error for o in done]),
        "test_error.reweighted": mean([e for e, _ in reweighted]),
        "margin_gain.mean": mean([g for _, g in reweighted]),
    }, digest


def blas_threads():
    """Threads in numpy's bundled OpenBLAS pool, or None if it is not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"# env python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} blas_threads={blas_threads()} "
            f"nproc={os.cpu_count()} cpu={cpu!r}")


def untraced(workload, name, seconds):
    with workload.loop():
        steps, elapsed = closed_loop(workload, seconds)
        timed_ops = sum(len(outcomes) for _, outcomes, _ in steps)
        while len(steps) < workload.pool:   # untimed, for the quality metrics
            steps.append(timed_step(workload, len(steps)))
    attempted, failed = judge(workload, steps)
    metrics, digest = quality(workload, steps)
    print(f"# fingerprint {name} sha256={digest}")
    # reported here, not among the bounded metrics: the first reads 0 on a
    # correct run, and the second varies across seeds by far more than any bound
    print(f"# metric failed_frac {failed / attempted:.17g} ratio")
    print(f"# metric margin_gain.mean {metrics.pop('margin_gain.mean'):.17g} margin")
    metrics.update({
        "ops_per_s": timed_ops / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return attempted, failed, metrics


def traced(workload, name, seconds, spans_path):
    """Run each step twice, traced and untraced, in alternating order, so a
    slow spell of the machine hits both sides alike; the spans come from
    the traced runs."""
    tracer = spans.Tracer()
    steps, again = [], []
    start = time.perf_counter()
    with workload.loop():
        while not steps or time.perf_counter() - start < seconds:
            j = len(steps)
            tracer.op = j
            if j % 2:
                again.append(timed_step(workload, j))
            with tracer.installed():
                steps.append(timed_step(workload, j))
            if not j % 2:
                again.append(timed_step(workload, j))
    # step 0 ran cold, so it is left out of the comparison when there are others
    traced_s = sum(step_s for _, _, step_s in steps[1:] or steps)
    untraced_s = sum(step_s for _, _, step_s in again[1:] or again)
    attempted, failed = judge(workload, steps + again)
    tracer.write(spans_path)
    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace.ops"] = sum(len(outcomes) for _, outcomes, _ in steps)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    blocks = spans.block_self_times(tracer.spans, GROUPS.get(name, {}))
    total = sum(blocks.values())
    for block, t in sorted(blocks.items(), key=lambda kv: -kv[1])[:6]:
        print(f"# self time {block}: {t:.3f} s ({t / total:.1%})")
    top = max(blocks, key=blocks.get)
    verdict = "as expected" if top == DOMINANT[name] else f"expected {DOMINANT[name]}"
    print(f"# dominant block {name}: {top} ({verdict}); spans written to {spans_path}")
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(environment())
    if args.trace:
        attempted, failed, metrics = traced(workload, args.workload, args.seconds, args.spans)
    else:
        attempted, failed, metrics = untraced(workload, args.workload, args.seconds)
        metrics["setup_s"] = setup_s
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
