"""Command-line front end for dataset utilities, reweighting, bounds, experiments.

Exit codes: 0 on success, 1 for configuration problems (arguments, config
files, unreadable or malformed inputs), 2 for failures during computation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import breiman_bound, germain_bound, report_rows, schapire_terms
from .cart import TreeParams
from .dataset_io import (
    FORMATS,
    Dataset,
    DatasetError,
    generate_synthetic,
    load_dataset,
    read_lines,
    stratified_split,
    write_dataset,
)
from .ensemble import load_model, prediction_matrix
from .harness import (
    ExperimentConfig,
    check_table_family,
    export_cmd_series,
    fit_baseline,
    render_table,
    report_lines,
    run_experiment,
    simulation_rows,
    training_row_count,
)
from .margins import compute_margins, margin_improvement, write_cmd
from .reweight import apply_scheme, ews_powers, parse_spec

class CliError(Exception):
    """Configuration problem; the process exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _load_ref(ref: str, fmt: str = "delimited", label_column: int = -1) -> Dataset:
    """Load a dataset from a file path or a synthetic:kind:n:noise:seed reference."""
    if fmt not in FORMATS:
        raise CliError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    if ref.startswith("synthetic:"):
        parts = ref.split(":")
        if len(parts) != 5:
            raise CliError("synthetic reference must be synthetic:kind:n:noise:seed")
        try:
            return generate_synthetic(parts[1], int(parts[2]), float(parts[3]),
                                      int(parts[4]))
        except ValueError as exc:
            raise CliError(str(exc))
    try:
        return load_dataset(ref, fmt, label_column=label_column)
    except OSError as exc:
        raise CliError(f"cannot read {ref}: {exc}")
    except DatasetError as exc:
        raise CliError(str(exc))


def _load_snapshot(path: str):
    try:
        return load_model(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad model snapshot {path}: {exc}")


def _matrix_for(model, data):
    try:
        return prediction_matrix(model, data)
    except ValueError as exc:
        raise CliError(f"data does not match the model: {exc}")


def _cmd_data_info(args) -> int:
    data = _load_ref(args.path, args.fmt, args.label_column)
    counts = data.class_counts()
    print(f"name\t{data.name}")
    print(f"rows\t{data.n_rows}")
    print(f"features\t{data.n_features}")
    print(f"class -1\t{counts[-1]}")
    print(f"class +1\t{counts[+1]}")
    return 0


def _cmd_data_split(args) -> int:
    data = _load_ref(args.path, args.fmt, args.label_column)
    try:
        train, test = stratified_split(data, args.frac, args.seed)
    except ValueError as exc:
        raise CliError(str(exc))
    base = Path(args.path if not args.path.startswith("synthetic:") else "synthetic.csv")
    train_path = args.out_train or str(base.with_suffix(f".train{base.suffix}"))
    test_path = args.out_test or str(base.with_suffix(f".test{base.suffix}"))
    written = []
    for part, path in ((train, train_path), (test, test_path)):
        try:
            write_dataset(part, path)
        except (OSError, DatasetError) as exc:
            for done in written:   # a split that fails leaves none of its files behind
                Path(done).unlink(missing_ok=True)
            raise CliError(str(exc) if isinstance(exc, DatasetError)
                           else f"cannot write {path}: {exc}")
        written.append(path)
    print(f"wrote {train_path} ({train.n_rows} rows)")
    print(f"wrote {test_path} ({test.n_rows} rows)")
    return 0


def _cmd_reweight(args) -> int:
    try:
        spec = parse_spec(args.scheme)
    except ValueError as exc:
        raise CliError(str(exc))
    model = _load_snapshot(args.model)
    data = _load_ref(args.data, args.fmt, args.label_column)
    matrix = _matrix_for(model, data)
    if spec.scheme == "ews":
        try:  # an emphasis past the float range is a choice of k, refused up front
            ews_powers(spec, matrix.n_rows)
        except ValueError as exc:
            raise CliError(str(exc))
    result = apply_scheme(spec, matrix, model.vote_weights)
    print(f"scheme\t{result.scheme}")
    print(f"feasible\t{'yes' if result.feasible else 'no'}")
    if result.feasible:
        lift = margin_improvement(result.old_profile, result.new_profile)
        print(f"objective\t{result.objective:.17g}")
        print(f"mean_improvement\t{lift.mean:.17g}")
        print(f"min_improvement\t{lift.min:.17g}")
        print(f"variance_reduction\t{result.variance_reduction:.17g}")
        print(f"range_reduction\t{result.range_reduction:.17g}")
        print("weights\t" + "\t".join(f"{w:.17g}" for w in result.weights))
    else:
        print(f"old_mean\t{result.old_profile.mean:.17g}")
        print(f"old_min\t{result.old_profile.min:.17g}")
    return 0


def _cmd_bounds(args) -> int:
    model = _load_snapshot(args.model)
    data = _load_ref(args.data, args.fmt, args.label_column)
    matrix = _matrix_for(model, data)
    weights = model.vote_weights
    profile = compute_margins(matrix, weights)
    reports = []
    try:
        if args.theta is not None and args.vc is not None:
            reports.append(schapire_terms(profile, args.theta, args.vc, data.n_rows,
                                          args.delta))
        if args.theta is not None and args.hspace is not None:
            reports.append(breiman_bound(profile, args.theta, args.hspace, data.n_rows,
                                         args.delta))
    except ValueError as exc:
        raise CliError(str(exc))
    reports.append(germain_bound(matrix, weights))
    for idx, report in enumerate(reports):
        if idx:
            print()
        for row in report_rows(report):
            print(row)
    return 0


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("yes", "true", "1", "on"):
        return True
    if low in ("no", "false", "0", "off"):
        return False
    raise ValueError(f"must be a yes/no value, got {value!r}")


def _checkpoints(value: str) -> tuple[int, ...]:
    points = tuple(int(v) for v in value.split(","))
    if min(points) < 1:
        raise ValueError(f"must be positive integers, got {value!r}")
    return points


# config key -> (field, parser); a key left out keeps the field's default
_LOAD_KEYS = {"format": ("fmt", str), "label_column": ("label_column", int)}
_TREE_KEYS = {"depth": ("max_depth", int), "leaves": ("max_leaves", int)}
_EXPERIMENT_KEYS = {
    "method": ("method", str),
    "T": ("n_trees", int),
    "sims": ("simulations", int),
    "frac": ("train_fraction", float),
    "alpha": ("alpha_level", float),
    "seed": ("seed", int),
    "mtry": ("m_try", int),
    "freeze_split": ("freeze_split", _parse_bool),
    "freeze_ensemble": ("freeze_ensemble", _parse_bool),
    "max_rows": ("max_rows", int),
}
_SERIES_KEYS = {"cmd_checkpoints": ("checkpoints", _checkpoints)}
_CONFIG_KEYS = (
    "dataset", "test", "schemes", "vc", "table", "out", "cmd_out",
    *_LOAD_KEYS, *_TREE_KEYS, *_EXPERIMENT_KEYS, *_SERIES_KEYS,
)


def _read_config(path: str) -> dict[str, str]:
    try:
        # blank lines are kept, so the line numbers count them
        lines = list(read_lines(Path(path)))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except DatasetError as exc:
        raise CliError(str(exc))
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    for required in ("dataset", "schemes"):
        if required not in out:
            raise CliError(f"{path}: config must set {required}")
    return out


def _fields(cfg: dict[str, str], keys: dict) -> dict:
    out = {}
    for key, (name, parse) in keys.items():
        if key in cfg:
            try:
                out[name] = parse(cfg[key])
            except ValueError as exc:
                raise CliError(f"{key}: {exc}")
    return out


def _build_experiment(cfg: dict[str, str]) -> ExperimentConfig:
    load = _fields(cfg, _LOAD_KEYS)
    data = _load_ref(cfg["dataset"], **load)
    test = _load_ref(cfg["test"], **load) if "test" in cfg else None
    tree = _fields(cfg, _TREE_KEYS)
    settings = _fields(cfg, _EXPERIMENT_KEYS)
    try:
        schemes = tuple(parse_spec(part.strip())
                        for part in cfg["schemes"].split(",") if part.strip())
        config = ExperimentConfig(dataset=data, schemes=schemes, test_dataset=test,
                                  tree_params=TreeParams(**tree), **settings)
        if "table" in cfg:
            check_table_family(cfg["table"], [s.label for s in config.schemes])
        # an emphasis past the float range is a choice of k, refused before the run
        for spec in config.schemes:
            if spec.scheme == "ews":
                ews_powers(spec, training_row_count(config))
        return config
    except ValueError as exc:
        raise CliError(str(exc))


def _cmd_experiment(args) -> int:
    cfg = _read_config(args.config)
    config = _build_experiment(cfg)
    series_args = _fields(cfg, _SERIES_KEYS)
    report = run_experiment(config)
    print(f"# {report.resampling}")
    print(f"dataset\t{config.dataset.name}")
    print(f"method\t{config.method}\ttrees\t{config.n_trees}"
          f"\tsimulations\t{config.simulations}\tsuccesses\t{report.successes}")
    print(f"baseline_mean_test_error\t{report.baseline_error:.6f}")
    print("\t".join(("scheme", "test_error", "mean_improve", "min_improve",
                     "var_reduce", "range_reduce", "feasible", "t_stat",
                     "p_value", "winner")))
    for s in report.summaries:
        print("\t".join((s.label, f"{s.mean_error:.6f}", f"{s.mean_improvement:.6f}",
                         f"{s.min_improvement:.6f}", f"{s.variance_reduction:.6f}",
                         f"{s.range_reduction:.6f}", str(s.feasible_count),
                         f"{s.t_statistic:.4f}", f"{s.p_value:.6f}", s.winner)))
    if "table" in cfg:
        print()
        print(render_table(report, cfg["table"]))
    if "out" in cfg:
        Path(cfg["out"]).write_text("\n".join(report_lines(report)) + "\n",
                                    encoding="utf-8")
        print(f"wrote {cfg['out']}")
    if "cmd_out" in cfg:
        data = simulation_rows(config)
        model = fit_baseline(config, data, config.seed)
        series = export_cmd_series(model, data, **series_args)
        for count, rows in sorted(series.items()):
            path = f"{cfg['cmd_out']}.T{count}.tsv"
            write_cmd(rows, path)
            print(f"wrote {path}")
    return 0


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fmt", choices=FORMATS,
                        default="delimited", help="input file format")
    parser.add_argument("--label-column", type=int, default=-1,
                        help="label column for delimited files")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="margin-forge",
                     description="Ensemble margin analysis: training, "
                                 "reweighting, bound reports, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    data = sub.add_parser("data", help="dataset utilities")
    data_sub = data.add_subparsers(dest="subcommand", required=True)
    info = data_sub.add_parser("info", help="describe a dataset")
    info.add_argument("path", help="dataset file or synthetic:kind:n:noise:seed")
    _add_format_flags(info)
    info.set_defaults(handler=_cmd_data_info)
    split = data_sub.add_parser("split", help="write stratified train/test files")
    split.add_argument("path", help="dataset file or synthetic:kind:n:noise:seed")
    split.add_argument("--frac", type=float, default=0.7,
                       help="training fraction (default 0.7)")
    split.add_argument("--seed", type=int, default=0)
    split.add_argument("--out-train", help="training output path")
    split.add_argument("--out-test", help="test output path")
    _add_format_flags(split)
    split.set_defaults(handler=_cmd_data_split)

    rew = sub.add_parser("reweight", help="reweight a saved ensemble on a dataset")
    rew.add_argument("--model", required=True, help="model snapshot path")
    rew.add_argument("--data", required=True, help="dataset used for the margins")
    rew.add_argument("--scheme", required=True,
                     help="uws | ews:k | pws:xi | sm1:xi | sm2")
    _add_format_flags(rew)
    rew.set_defaults(handler=_cmd_reweight)

    bnd = sub.add_parser("bounds", help="evaluate generalization bound reports")
    bnd.add_argument("--model", required=True, help="model snapshot path")
    bnd.add_argument("--data", required=True, help="dataset to plug in")
    bnd.add_argument("--theta", type=float, help="margin threshold")
    bnd.add_argument("--vc", type=float, help="learner capacity dimension")
    bnd.add_argument("--hspace", type=float, help="learner space size")
    bnd.add_argument("--delta", type=float, default=0.05, help="confidence level")
    _add_format_flags(bnd)
    bnd.set_defaults(handler=_cmd_bounds)

    exp = sub.add_parser("experiment", help="run a repeated-simulation comparison")
    exp.add_argument("--config", required=True, help="key = value config file")
    exp.set_defaults(handler=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
