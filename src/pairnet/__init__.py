"""Pairwise threshold-logic-unit networks for overlapping multi-class data.

The package trains one small linear test per unordered class pair (pocket
algorithm with ratchet), wires the thresholded test outputs into
winner-take-all output sums, and aggregates per-segment decisions into
per-record votes. A jointly trained winner-take-all linear machine serves
as the baseline, alongside feature-significance statistics, a spectral
band featurizer, and a seeded synthetic benchmark generator.

``import pairnet`` loads none of the modules: each public name below is
imported from its module when it is first used (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it defines.
_EXPORTS = {
    "dataset": ("Dataset", "ScreeningReport", "Standardization", "load_csv", "save_csv",
                "screen_outliers", "split_by_record", "standardize"),
    "errors": ("PairnetError", "SchemaError", "ParseError", "EmptyInputError",
               "ParameterError", "DimensionError", "TrainingError"),
    "feature_stats": ("SignificanceReport", "significance", "sigma_intervals"),
    "linear_machine": ("LinearMachine", "lm_train_pocket"),
    "model_io": ("load_model", "save_model"),
    "pairwise_net": ("EvalMetrics", "PairwiseNetwork", "PairwiseTest", "RecordClassification",
                     "classify_record", "derive_pair_seed", "enumerate_pairs", "evaluate",
                     "net_classify", "net_outputs", "train_pairwise"),
    "synthgen": ("SynthConfig", "default_config", "generate"),
    "tlu": ("PocketResult", "TrainConfig", "train_pocket"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    # Names not in the table, submodules among them, stay unknown here, so
    # that ``from pairnet import dataset`` imports the submodule.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_OWNER})
