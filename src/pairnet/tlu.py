"""Single threshold logic unit: linear test, error correction, pocket training."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (DimensionError, EmptyInputError, ParameterError, RangeError,
                     TrainingError, check_seed)

# A TLU is parameterized by one extended weight vector of length m+1,
# where w[0] is the bias multiplying the implicit constant input 1.
TluWeights = np.ndarray

# Training stops before it starts unless its weights, activations and their
# partial sums all stay below this, far from float64's largest value.
_RANGE_LIMIT = 2.0**1000

# The rows that classification (blockwise) and check_range take at a time.
# Their temporaries then hold O(BLOCK_ROWS x tests) values, whatever the
# number of rows. At paper scale, 1,024-row blocks classified faster than
# the whole array at once.
BLOCK_ROWS = 1024


def _check_c(c) -> None:
    if not (isinstance(c, numbers.Real) and math.isfinite(c) and c > 0):
        raise ParameterError(f"correction amount c must be a finite number > 0, got {c}")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for pocket training.

    c is the correction amount added per error, max_iterations counts
    example visits (not epochs), and seed fixes the visit order: a fresh
    permutation of the examples per epoch.
    """

    c: float = 1.0
    max_iterations: int = 20_000
    seed: int = 0

    def __post_init__(self):
        _check_c(self.c)
        if (
            not isinstance(self.max_iterations, numbers.Integral)
            or isinstance(self.max_iterations, bool)
            or not 1 <= self.max_iterations < 2**63  # the C loops count runs in int64
        ):
            raise ParameterError(
                f"max_iterations must be an integer >= 1 and < 2**63, got {self.max_iterations}"
            )
        check_seed(self.seed)


@dataclass(frozen=True)
class PocketResult:
    """Outcome of one pocket training run.

    accuracy_history lists (iteration, accuracy) pairs: the initial pocket
    at iteration 0 plus one entry per pocket swap. Accuracies are
    non-decreasing by construction.
    """

    weights: TluWeights
    train_accuracy: float
    iterations_used: int
    accuracy_history: tuple[tuple[int, float], ...] = field(repr=False)


def extend(X: np.ndarray) -> np.ndarray:
    """Prepend the constant column x_0 = 1 to a (n, m) feature matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return np.ascontiguousarray(np.hstack([np.ones((X.shape[0], 1)), X]))


def blockwise(fn, X: np.ndarray, m: int, standardization=None) -> np.ndarray:
    """fn applied to X's rows through a model's input path, BLOCK_ROWS rows
    at a time, its results joined in row order.

    The input path checks that X has m features, applies the model's
    standardization when it has one, and extends each block. fn sees one
    extended block and returns one result row per input row, so the
    temporaries it makes do not grow with the number of rows.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != m:
        raise DimensionError(f"expected {m} features, got {X.shape[1]}")
    parts = []
    for s in range(0, max(len(X), 1), BLOCK_ROWS):  # one empty block when X has no rows
        block = X[s:s + BLOCK_ROWS]
        if standardization is not None:
            block = standardization.apply(block)
        parts.append(fn(extend(block)))
    return np.concatenate(parts)


def check_range(xb: np.ndarray, cfg: TrainConfig) -> None:
    """RangeError (a TrainingError) unless training on the extended rows xb
    stays within float64's range.

    Each error-correction step adds at most c * max|x| to a weight, so after
    any number of visits up to max_iterations no weight exceeds
    c * max_iterations * max|x|, and no activation, or partial sum of one,
    exceeds that times the largest row's L1 norm. Training runs only when
    every cell is finite and that bound lies below 2**1000. The rows are
    scanned BLOCK_ROWS at a time with numpy reductions, which, unlike
    Python's max, carry a nan through to the bound.
    """
    x_max = l1_max = np.float64(0.0)
    with np.errstate(over="ignore"):
        for s in range(0, len(xb), BLOCK_ROWS):
            ax = np.abs(xb[s:s + BLOCK_ROWS])
            x_max = np.maximum(x_max, ax.max())
            l1_max = np.maximum(l1_max, ax.sum(axis=1).max())
        bound = float(cfg.c) * cfg.max_iterations * float(x_max) * float(l1_max)
    if not np.isfinite(x_max):
        raise RangeError(
            f"training input is not finite: max|x| = {float(x_max)}; every "
            "feature value must be a finite number"
        )
    if not bound < _RANGE_LIMIT:
        raise RangeError(
            f"training could overflow float64: c * max_iterations * max|x| * "
            f"max row L1 norm = {bound:.3g} is not below 2**1000; scale the "
            "features down or lower c or max_iterations"
        )


def train_pocket(X: np.ndarray, targets: np.ndarray, cfg: TrainConfig) -> PocketResult:
    """Train one TLU with the pocket algorithm.

    X is (n, m) with one example per row; targets holds +/-1 per example.
    Training visits examples in the seeded order from cfg, applies the
    error-correction rule on mistakes, and keeps the best-accuracy weights
    seen (ratchet: a full-accuracy evaluation is attempted only when the
    current run of correct classifications beats the pocket's). The
    returned train_accuracy is the pocket's accuracy over all of X.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64).ravel()
    if X.shape[0] == 0:
        raise EmptyInputError("train_pocket needs at least one example")
    if X.shape[0] != targets.shape[0]:
        raise DimensionError(
            f"{X.shape[0]} examples but {targets.shape[0]} targets"
        )
    if not np.all(np.isin(targets, (1.0, -1.0))):
        raise TrainingError("targets must be +1 or -1")
    if not (np.any(targets > 0) and np.any(targets < 0)):
        raise TrainingError("need at least one example of each target sign")

    xb = extend(X)
    check_range(xb, cfg)
    order = _kernels.epochs(X.shape[0], cfg.max_iterations, cfg.seed)
    return PocketResult(*_kernels.pocket_loop(xb, targets, order, float(cfg.c)))
