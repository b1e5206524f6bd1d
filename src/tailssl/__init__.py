"""tailssl: long-tailed semi-supervised learning with a class-rebalanced feature memory.

Library surface: synthetic long-tailed data generation, a two-head MLP trainer
with confidence-gated pseudo-labeling, a probabilistically balanced feature
memory bank with reversed re-sampling, adaptive loss re-weighting, and
evaluation metrics. The `tailssl` CLI wraps dataset generation, training runs,
ablation sweeps, and report emission.
"""

from .data import (
    AugmentConfig,
    Dataset,
    DatasetSpec,
    Split,
    generate_dataset,
    load_dataset,
    longtail_counts,
    save_dataset,
    strong_augment,
    weak_augment,
)
from .errors import ConfigError, DatasetFormatError, TrainingDivergedError
from .estimator import PseudoLabelLedger
from .membank import MemoryBank, stream_entropy
from .metrics import (
    EvalReport,
    estimation_error,
    evaluate,
    group_accuracy,
    shot_groups,
)
from .trainer import StepMetrics, TrainConfig, TrainState, fit, init_state, predict, train_step

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "ConfigError",
    "Dataset",
    "DatasetFormatError",
    "DatasetSpec",
    "EvalReport",
    "MemoryBank",
    "PseudoLabelLedger",
    "Split",
    "StepMetrics",
    "TrainConfig",
    "TrainState",
    "TrainingDivergedError",
    "estimation_error",
    "evaluate",
    "fit",
    "generate_dataset",
    "group_accuracy",
    "init_state",
    "load_dataset",
    "longtail_counts",
    "predict",
    "save_dataset",
    "shot_groups",
    "stream_entropy",
    "strong_augment",
    "train_step",
    "weak_augment",
]
