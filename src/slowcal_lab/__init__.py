"""slowcal-lab: a parameter-server laboratory for distributed stochastic
convex optimization.

Implements drift-corrected local SGD (per-machine query-point averaging with
increasing step weights) next to minibatch SGD and local SGD baselines, with
exactly reproducible seeded runs, self-checking algebraic identities, and a
CSV/manifest experiment harness.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .algorithms import (
    ALGORITHMS,
    RunConfig,
    StepRecord,
    Trajectory,
    run_lanes,
)
from .data import (
    IdxFormatError,
    LabeledDataset,
    Partition,
    dirichlet_partition,
    load_mnist,
    parse_idx_images,
    parse_idx_labels,
    serialize_idx_images,
    serialize_idx_labels,
    synth_clusters,
)
from .metrics import RoundMetrics, bias_increment, dispersion, excess_loss, momentum_residual
from .objectives import (
    DegenerateProblemError,
    LogisticEnsemble,
    ProblemMetadata,
    QuadraticEnsemble,
    heterogeneous_quadratic,
)
from .runner import (
    ConfigError,
    ExperimentSpec,
    RunSummary,
    build_problem,
    load_spec,
    run_experiment,
    spec_from_dict,
)
from .tuning import GridResult, GridSearchError, LrInputs, grid_search, rmin, theoretical_lr
from .verify import CheckResult, VerifyReport, verify_suite
from .weights import (
    LINEAR,
    UNIFORM,
    WeightSchedule,
    averaging_coeff,
    parse_schedule,
    prefix_weight,
    weight_at,
)

__all__ = [
    "ALGORITHMS",
    "CheckResult",
    "ConfigError",
    "DegenerateProblemError",
    "ExperimentSpec",
    "GridResult",
    "GridSearchError",
    "IdxFormatError",
    "LINEAR",
    "LabeledDataset",
    "LogisticEnsemble",
    "LrInputs",
    "Partition",
    "ProblemMetadata",
    "QuadraticEnsemble",
    "RoundMetrics",
    "RunConfig",
    "RunSummary",
    "StepRecord",
    "Trajectory",
    "UNIFORM",
    "VerifyReport",
    "WeightSchedule",
    "__version__",
    "averaging_coeff",
    "bias_increment",
    "build_problem",
    "dirichlet_partition",
    "dispersion",
    "excess_loss",
    "grid_search",
    "heterogeneous_quadratic",
    "load_mnist",
    "load_spec",
    "momentum_residual",
    "parse_idx_images",
    "parse_idx_labels",
    "parse_schedule",
    "prefix_weight",
    "rmin",
    "run_experiment",
    "run_lanes",
    "serialize_idx_images",
    "serialize_idx_labels",
    "spec_from_dict",
    "synth_clusters",
    "theoretical_lr",
    "verify_suite",
    "weight_at",
]
