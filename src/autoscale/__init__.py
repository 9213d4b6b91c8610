"""Two-phase task-weight selection for multi-task training.

Phase one trains in short windows, re-solving the task weights after each
window by minimizing a balance cost over the window's gradient/loss
snapshots; phase two freezes an aggregate of the late window weights and
trains to completion.  The package also ships the diagnostic metrics the
costs are built from, synthetic multi-task problem families with known
reference optima, evaluation utilities, and a trace/CSV command-line shell.
"""
from .core import (
    DEFAULT_WEIGHT_FLOOR,
    DegenerateInputError,
    DivergenceError,
    GradientSnapshot,
    LossSnapshot,
    MetricRecord,
    WeightVector,
    WindowBuffer,
    make_weight_vector,
    snapshot_from_gradients,
    spawn_rng,
    uniform_weights,
)
from .metrics import (
    condition_number,
    grad_cosine_similarity,
    grad_magnitude_similarity,
    inverse_learning_rate,
    kappa_from_grams,
    loss_descending_rate,
    metric_record,
    metric_records,
    pairwise_mean,
    relative_loss,
    task_std,
)
from .costs import (
    CostKind,
    quadratic_form,
    window_cost,
)
from .solver import (
    SolverMethod,
    SolverReport,
    project_feasible,
    solve_general,
    solve_quadratic,
)
from .scheduler import (
    AutoScaleConfig,
    TrainingRun,
    aggregate_final_weight,
    run_autoscale,
    run_fixed_scalarization,
    run_weight_schedule,
)
from .bench import (
    MLPRegressionFamily,
    QuadraticFamily,
    imbalanced_reference_problem,
    make_mlp_problem,
    make_quadratic_problem,
    random_loss_weighting_step,
    run_stl_baselines,
    sample_weight_sets,
)
from .evaluation import (
    TaskScore,
    delta_m,
    delta_m_deg,
    mean_rank,
    spearman_correlation,
)
from .traceio import (
    TRACE_FIELDS,
    TraceLine,
    TraceParseError,
    config_hash,
    parse_trace_line,
    read_trace,
    serialize_trace_line,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_WEIGHT_FLOOR",
    "DegenerateInputError",
    "DivergenceError",
    "GradientSnapshot",
    "LossSnapshot",
    "MetricRecord",
    "WeightVector",
    "WindowBuffer",
    "make_weight_vector",
    "snapshot_from_gradients",
    "spawn_rng",
    "uniform_weights",
    "condition_number",
    "grad_cosine_similarity",
    "grad_magnitude_similarity",
    "inverse_learning_rate",
    "kappa_from_grams",
    "loss_descending_rate",
    "metric_record",
    "metric_records",
    "pairwise_mean",
    "relative_loss",
    "task_std",
    "CostKind",
    "quadratic_form",
    "window_cost",
    "SolverMethod",
    "SolverReport",
    "project_feasible",
    "solve_general",
    "solve_quadratic",
    "AutoScaleConfig",
    "TrainingRun",
    "aggregate_final_weight",
    "run_autoscale",
    "run_fixed_scalarization",
    "run_weight_schedule",
    "MLPRegressionFamily",
    "QuadraticFamily",
    "imbalanced_reference_problem",
    "make_mlp_problem",
    "make_quadratic_problem",
    "random_loss_weighting_step",
    "run_stl_baselines",
    "sample_weight_sets",
    "TaskScore",
    "delta_m",
    "delta_m_deg",
    "mean_rank",
    "spearman_correlation",
    "TRACE_FIELDS",
    "TraceLine",
    "TraceParseError",
    "config_hash",
    "parse_trace_line",
    "read_trace",
    "serialize_trace_line",
    "write_trace",
    "__version__",
]
