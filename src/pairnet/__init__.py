"""Pairwise threshold-logic-unit networks for overlapping multi-class data.

The package trains one small linear test per unordered class pair (pocket
algorithm with ratchet), wires the thresholded test outputs into
winner-take-all output sums, and aggregates per-segment decisions into
per-record votes. A jointly trained winner-take-all linear machine serves
as the baseline, alongside feature-significance statistics, a spectral
band featurizer, and a seeded synthetic benchmark generator.
"""

from .dataset import (
    Dataset,
    ScreeningReport,
    Standardization,
    load_csv,
    save_csv,
    screen_outliers,
    split_by_record,
    standardize,
)
from .errors import (
    DimensionError,
    EmptyInputError,
    PairnetError,
    ParameterError,
    ParseError,
    SchemaError,
    TrainingError,
)
from .feature_stats import (
    SignificanceReport,
    sigma_intervals,
    significance,
)
from .linear_machine import LinearMachine, lm_classify, lm_discriminants, lm_train_pocket
from .model_io import load_model, save_model
from .pairwise_net import (
    EvalMetrics,
    PairwiseNetwork,
    PairwiseTest,
    RecordClassification,
    classify_record,
    derive_pair_seed,
    enumerate_pairs,
    evaluate,
    net_classify,
    net_outputs,
    train_pairwise,
)
from .synthgen import SynthConfig, default_config, generate
from .tlu import (
    PocketResult,
    TrainConfig,
    activation,
    tlu_output,
    train_pocket,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ScreeningReport",
    "Standardization",
    "load_csv",
    "save_csv",
    "screen_outliers",
    "split_by_record",
    "standardize",
    "PairnetError",
    "SchemaError",
    "ParseError",
    "EmptyInputError",
    "ParameterError",
    "DimensionError",
    "TrainingError",
    "SignificanceReport",
    "significance",
    "sigma_intervals",
    "LinearMachine",
    "lm_classify",
    "lm_discriminants",
    "lm_train_pocket",
    "load_model",
    "save_model",
    "EvalMetrics",
    "PairwiseNetwork",
    "PairwiseTest",
    "RecordClassification",
    "classify_record",
    "derive_pair_seed",
    "enumerate_pairs",
    "evaluate",
    "net_classify",
    "net_outputs",
    "train_pairwise",
    "SynthConfig",
    "default_config",
    "generate",
    "PocketResult",
    "TrainConfig",
    "activation",
    "tlu_output",
    "train_pocket",
    "__version__",
]
