"""margin-forge benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload boost-lp --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports the package from `src/`.  Each
workload runs in a fresh worker process whose BLAS pool is fixed at one
thread.  With `--trace 0` the worker's loop is untraced and the last line
of output carries the end-to-end metrics; set-up runs in two more worker
processes and `setup_s` is the median of the three.  With `--trace 1` the
loop runs with spans around every layer and the last line carries the
per-layer metrics.  Lines starting with `#` before it record the
environment, the fingerprint of the results and the trace's layer shares.
Temporary files and spans go under `.bench_build/perfbench/`.

Workloads, metrics and the layer each metric should move are described in
perfbench/README.md.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("boost-lp", "boost-fit", "snapshot-score")
SETUP_SAMPLES = 3
DEADLINE_S = 170
BUILD_DIR = os.path.join(".bench_build", "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json at the repository root lists them."""
    with open("BENCHMARK.json") as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[kind]}


def run_worker(args, deadline, *extra):
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as workdir:
        command = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--workdir", workdir, *extra]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.path.abspath("src"))
        # subprocess.run kills and reaps the worker if the deadline passes
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker for {args.workload} exited with status {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join("src", "margin_forge", "__init__.py")):
        sys.exit("run from the margin-forge repository root: src/margin_forge is missing")

    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(BUILD_DIR, exist_ok=True)
    if args.trace:
        spans_path = os.path.join(BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = run_worker(args, deadline, "--trace", "1", "--spans", spans_path)
    else:
        result = run_worker(args, deadline)
        setups = [result["metrics"]["setup_s"]] + [
            run_worker(args, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        result["metrics"]["setup_s"] = statistics.median(setups)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(result["metrics"]):
        sys.exit(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(units)}")
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in sorted(result["metrics"].items())}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
