"""Feed-forward networks trained with quasi-diagonal Riemannian updates."""

from .data import (
    Dataset,
    generate_eeg,
    invert_features,
    load_csv,
    load_idx,
    minibatches,
)
from .harness import (
    DEFAULT_ETA_GRID,
    LOG_COLUMNS,
    BenchResult,
    GridResult,
    RunConfig,
    TrainLog,
    benchmark,
    eval_metrics,
    grid_search,
    run_training,
)
from .metric import BlockLayout, MetricError, QDMetric
from .network import (
    Network,
    StaleTraceError,
    load_checkpoint,
    make_sparse_layout,
    save_checkpoint,
    to_inverted_inputs,
    to_tanh_equivalent,
)
from .optim import (
    ALGOS,
    DivergenceError,
    OptimizerConfig,
    OptimizerState,
    optimizer_step,
)
from .outputs import (
    BernoulliOutput,
    CategoricalOutput,
    FisherTerm,
    GaussianOutput,
    make_output_model,
)
from .verify import SUITES, CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "ALGOS",
    "BernoulliOutput",
    "BenchResult",
    "BlockLayout",
    "CategoricalOutput",
    "CheckResult",
    "Dataset",
    "DEFAULT_ETA_GRID",
    "DivergenceError",
    "FisherTerm",
    "GaussianOutput",
    "GridResult",
    "LOG_COLUMNS",
    "MetricError",
    "Network",
    "OptimizerConfig",
    "OptimizerState",
    "QDMetric",
    "RunConfig",
    "SUITES",
    "StaleTraceError",
    "TrainLog",
    "benchmark",
    "eval_metrics",
    "generate_eeg",
    "grid_search",
    "invert_features",
    "load_checkpoint",
    "load_csv",
    "load_idx",
    "make_output_model",
    "make_sparse_layout",
    "minibatches",
    "optimizer_step",
    "run_suite",
    "run_training",
    "save_checkpoint",
    "to_inverted_inputs",
    "to_tanh_equivalent",
]
