"""Spans around calls into margin-forge, recorded from outside the library.

Each public function is wrapped where its caller looks it up (a module
global or a class attribute), so no library file changes.  Spans live in
memory as [name, start, end, parent index, operation id, counts] and are
written out once, after the run.  `installed()` restores every original
function when the traced run ends.
"""
import contextlib
import functools
import json
import math
import os
import time

from margin_forge import bounds, cart, cli, dataset_io, ensemble, harness, margins, reweight

# (owner, attribute, span name); the span name's prefix is the layer
WRAPPED = (
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "run_one_simulation", "harness.sim"),
    (harness, "export_cmd_series", "harness.export_cmd_series"),
    (harness, "stratified_split", "dataset_io.split"),
    (harness, "adaboost", "ensemble.fit"),
    (harness, "random_forest", "ensemble.fit"),
    (harness, "bagging", "ensemble.fit"),
    (harness, "prediction_matrix", "ensemble.prediction_matrix"),
    (harness, "apply_scheme", "reweight.apply_scheme"),
    (harness, "compute_margins", "margins.compute_margins"),
    (harness, "margin_improvement", "margins.margin_improvement"),
    (harness, "training_error_from_margins", "margins.training_error"),
    (harness, "cmd", "margins.cmd"),
    (ensemble, "fit_tree", "cart.fit_tree"),
    (ensemble, "load_model", "ensemble.load_model"),
    (ensemble, "prediction_matrix", "ensemble.prediction_matrix"),
    (cart.Tree, "predict", "cart.predict"),
    (reweight, "solve", "simplex.solve"),
    (reweight, "sm2_weights", "reweight.sm2"),
    (reweight, "compute_margins", "margins.compute_margins"),
    (cli, "main", "cli.main"),
    (cli, "load_dataset", "dataset_io.load"),
    (cli, "load_model", "ensemble.load_model"),
    (cli, "prediction_matrix", "ensemble.prediction_matrix"),
    (cli, "apply_scheme", "reweight.apply_scheme"),
    (cli, "compute_margins", "margins.compute_margins"),
    (cli, "margin_improvement", "margins.margin_improvement"),
    (cli, "schapire_terms", "bounds.schapire"),
    (cli, "breiman_bound", "bounds.breiman"),
    (cli, "germain_bound", "bounds.germain"),
    (bounds, "compute_margins", "margins.compute_margins"),
    (bounds, "germain_bound", "bounds.germain"),
    (bounds, "gibbs_risk", "bounds.gibbs_risk"),
    (dataset_io, "load_dataset", "dataset_io.load"),
    (margins, "compute_margins", "margins.compute_margins"),
    (margins, "training_error_from_margins", "margins.training_error"),
    (margins, "cmd", "margins.cmd"),
    (margins, "export_cmd", "margins.export_cmd"),
)


def _lp_counts(args, result):
    problem = args[0]
    rows = problem.a_ge.shape[0] + problem.a_eq.shape[0]
    return {"cells": rows * problem.n_vars, "infeasible": int(result.status == "infeasible")}


# work counted at the span boundary, from the call's arguments and result
COUNTS = {
    "simplex.solve": _lp_counts,
    "ensemble.prediction_matrix": lambda args, result: {"cells": result.entries.size},
    "dataset_io.load": lambda args, result: {"rows": result.n_rows,
                                             "bytes": os.path.getsize(args[0])},
    "reweight.apply_scheme": lambda args, result: {"feasible": int(result.feasible)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._open = []

    def _wrap(self, fn, name):
        count = COUNTS.get(name)
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.op, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if count is not None:
                span[5] = count(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in WRAPPED:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


def _rank(ordered, pct):
    # nearest-rank percentile of a sorted list
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def p50(values):
    return _rank(sorted(values), 50.0) if values else 0.0


def tail(values):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it;
    the maximum when there are fewer than 20 samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10.0:
            return _rank(ordered, pct)
    return ordered[-1]


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(spans):
    """The per-layer metrics of one traced run, as totals over the run."""
    own = self_times(spans)

    def durations(name, scale=1.0):
        return [(s[2] - s[1]) * scale for s in spans if s[0] == name]

    def self_of(prefix):
        return sum(t for s, t in zip(spans, own) if s[0].startswith(prefix))

    def counted(name, key):
        return sum(s[5][key] for s in spans if s[0] == name)

    sims = durations("harness.sim")
    fits = durations("cart.fit_tree", 1e3)
    solves = durations("simplex.solve", 1e3)
    commands = durations("cli.main", 1e3)
    schemes = len(durations("reweight.apply_scheme"))
    return {
        "harness.sim_s.p50": p50(sims),
        "harness.sim_s.tail": tail(sims),
        "harness.sims": len(sims),
        "harness.self_s": self_of("harness."),
        "harness.export_cmd_series_s": sum(durations("harness.export_cmd_series")),
        "dataset_io.split_s": sum(durations("dataset_io.split")),
        "dataset_io.load_s": sum(durations("dataset_io.load")),
        "dataset_io.rows_parsed": counted("dataset_io.load", "rows"),
        "dataset_io.bytes_parsed": counted("dataset_io.load", "bytes"),
        "cart.fit_tree_s": sum(fits) / 1e3,
        "cart.fit_tree_calls": len(fits),
        "cart.fit_tree_ms.p50": p50(fits),
        "cart.predict_s": sum(durations("cart.predict")),
        "cart.predict_calls": len(durations("cart.predict")),
        "ensemble.fit_self_s": self_of("ensemble.fit"),
        "ensemble.prediction_matrix_self_s": self_of("ensemble.prediction_matrix"),
        "ensemble.prediction_cells": counted("ensemble.prediction_matrix", "cells"),
        "ensemble.load_model_s": sum(durations("ensemble.load_model")),
        "simplex.solve_s": sum(solves) / 1e3,
        "simplex.solves": len(solves),
        "simplex.solve_ms.p50": p50(solves),
        "simplex.solve_ms.tail": tail(solves),
        "simplex.lp_cells": counted("simplex.solve", "cells"),
        "simplex.infeasible": counted("simplex.solve", "infeasible"),
        "reweight.self_s": self_of("reweight."),
        "reweight.sm2_s": sum(durations("reweight.sm2")),
        "reweight.feasible_frac": (counted("reweight.apply_scheme", "feasible") / schemes
                                   if schemes else 0.0),
        "margins.self_s": self_of("margins."),
        "bounds.self_s": self_of("bounds."),
        "cli.self_s": self_of("cli."),
        "cli.command_ms.p50": p50(commands),
        "cli.command_ms.tail": tail(commands),
        "cli.commands": len(commands),
    }


def block_self_times(spans, groups):
    """Self time per span name, with the names in `groups` pooled into
    named blocks, e.g. prediction and parsing counted together."""
    out = {}
    for span, t in zip(spans, self_times(spans)):
        block = groups.get(span[0], span[0])
        out[block] = out.get(block, 0.0) + t
    return out
