"""Single threshold logic unit: linear test, error correction, pocket training."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DimensionError, EmptyInputError, ParameterError, TrainingError

# A TLU is parameterized by one extended weight vector of length m+1,
# where w[0] is the bias multiplying the implicit constant input 1.
TluWeights = np.ndarray


def _check_c(c) -> None:
    if not (isinstance(c, numbers.Real) and math.isfinite(c) and c > 0):
        raise ParameterError(f"correction amount c must be a finite number > 0, got {c}")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for pocket training.

    c is the correction amount added per error, max_iterations counts
    example visits (not epochs), and shuffle controls whether the visit
    order is a seeded random permutation per epoch or plain cyclic order.
    """

    c: float = 1.0
    max_iterations: int = 20_000
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        _check_c(self.c)
        if (
            not isinstance(self.max_iterations, numbers.Integral)
            or isinstance(self.max_iterations, bool)
            or self.max_iterations < 1
        ):
            raise ParameterError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations}"
            )


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


def activation(w: TluWeights, x: np.ndarray) -> float:
    """Raw linear test value w[0] + sum(w[1:] * x)."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or w.ndim != 1 or w.shape[0] != x.shape[0] + 1:
        raise DimensionError(
            f"weight length {w.shape} does not match feature length {x.shape}"
        )
    return float(w[0] + w[1:] @ x)


def tlu_output(w: TluWeights, x: np.ndarray) -> int:
    """Thresholded output: +1 when the activation is > 0, else -1."""
    return 1 if activation(w, x) > 0.0 else -1


def error_correct(w: TluWeights, x: np.ndarray, target: int, c: float = 1.0) -> TluWeights:
    """One error-correction step: w + c * target * extended(x).

    Returns a new weight vector; the input is left unmodified. Meant to be
    applied when the unit misclassifies x (target is the desired +/-1).
    """
    _check_c(c)
    if target not in (1, -1):
        raise ParameterError(f"target must be +1 or -1, got {target}")
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if w.shape[0] != x.shape[0] + 1:
        raise DimensionError(
            f"weight length {w.shape} does not match feature length {x.shape}"
        )
    xt = np.concatenate([[1.0], x])
    return w + c * target * xt


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
    rng = np.random.default_rng(cfg.seed)
    order = _kernels.build_visit_order(X.shape[0], cfg.max_iterations, rng, cfg.shuffle)
    weights, acc, used, hist_it, hist_acc = _kernels.pocket_loop(
        xb, np.ascontiguousarray(targets), order, float(cfg.c), cfg.max_iterations
    )
    history = tuple(zip((int(i) for i in hist_it), (float(a) for a in hist_acc)))
    return PocketResult(
        weights=weights,
        train_accuracy=float(acc),
        iterations_used=int(used),
        accuracy_history=history,
    )
