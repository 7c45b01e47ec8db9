"""Ensemble margin toolkit: voting ensembles over small CART trees,
LP-based vote reweighting, margin analytics, generalization-bound
calculators, and a simulation harness with paired significance tests."""

from .bounds import (
    BOUND_NAMES, BoundReport, breiman_bound, germain_bound, gibbs_risk, report_rows,
    schapire_terms,
)
from .cart import Tree, TreeLayout, TreeParams, fit_tree
from .dataset_io import (
    Dataset, DatasetError, check_paired, generate_synthetic, load_dataset,
    split_indices, stratified_split, write_dataset,
)
from .ensemble import (
    EnsembleError, EnsembleModel, PredictionMatrix, adaboost, bagging, load_model,
    prediction_matrix, random_forest, save_model,
)
from .harness import (
    ExperimentConfig, ExperimentError, ExperimentReport, PairedTResult, SchemeSummary,
    SimulationRecord, derived_seed, export_cmd_series, fit_baseline, paired_t_test,
    render_table, report_lines, run_experiment, run_one_simulation, t_two_sided_p,
)
from .margins import (
    MarginImprovement, MarginProfile, cmd, compute_margins, export_cmd,
    margin_improvement, training_error_from_margins,
)
from .reweight import (
    RewResult, RewSpec, SelfCheckError, apply_scheme, parse_spec, sm2_weights,
)
from .simplex import LpProblem, LpSolution, SimplexError, solve

__version__ = "0.1.0"

__all__ = [
    "BOUND_NAMES", "BoundReport", "Dataset", "DatasetError", "EnsembleError",
    "EnsembleModel", "ExperimentConfig", "ExperimentError", "ExperimentReport",
    "LpProblem", "LpSolution", "MarginImprovement", "MarginProfile", "PairedTResult",
    "PredictionMatrix", "RewResult", "RewSpec", "SchemeSummary", "SelfCheckError",
    "SimplexError", "SimulationRecord", "Tree", "TreeLayout", "TreeParams", "adaboost",
    "apply_scheme", "bagging", "breiman_bound", "check_paired", "cmd",
    "compute_margins", "derived_seed", "export_cmd", "export_cmd_series",
    "fit_baseline", "fit_tree", "generate_synthetic", "germain_bound", "gibbs_risk",
    "load_dataset", "load_model", "margin_improvement", "paired_t_test", "parse_spec",
    "prediction_matrix", "random_forest", "render_table", "report_lines", "report_rows",
    "run_experiment", "run_one_simulation", "save_model", "schapire_terms",
    "sm2_weights", "solve", "split_indices", "stratified_split", "t_two_sided_p",
    "training_error_from_margins", "write_dataset",
]
