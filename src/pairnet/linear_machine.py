"""Winner-take-all linear machine baseline: r jointly trained discriminants."""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dataset import Dataset, Standardization
from .errors import DimensionError, TrainingError
from .tlu import PocketResult, TrainConfig, blockwise, check_range, extend


@dataclass(frozen=True)
class LinearMachine:
    """r discriminant weight vectors; classification is argmax over them.

    weights is (r, m+1) with the bias in column 0. When standardization is
    present it is applied to raw inputs before the discriminants.
    """

    r: int
    m: int
    weights: np.ndarray
    standardization: Standardization | None = None

    def __post_init__(self):
        W = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "weights", W)
        if W.shape != (self.r, self.m + 1):
            raise DimensionError(
                f"weights shape {W.shape} does not match (r={self.r}, m+1={self.m + 1})"
            )

    def discriminants_batch(self, X: np.ndarray) -> np.ndarray:
        """(n, r) matrix of raw discriminant values, computed in blocks of
        rows (see tlu.blockwise)."""
        return blockwise(lambda xb: xb @ self.weights.T, X, self.m, self.standardization)

    def classify_batch(self, X: np.ndarray) -> np.ndarray:
        """Predicted class ids (argmax, ties to the lowest id).

        Works in blocks of rows (see tlu.blockwise), so its temporaries take
        O(block x r) memory, whatever the number of rows.
        """
        return blockwise(lambda xb: np.argmax(xb @ self.weights.T, axis=1) + 1,
                         X, self.m, self.standardization)


def lm_discriminants(lm: LinearMachine, x: np.ndarray) -> np.ndarray:
    """Raw discriminant values g_1..g_r for a single example."""
    return lm.discriminants_batch(np.atleast_2d(x))[0]


def lm_classify(lm: LinearMachine, x: np.ndarray) -> int:
    """Winner-take-all class id for a single example."""
    return int(lm.classify_batch(np.atleast_2d(x))[0])


def lm_train_pocket(
    ds: Dataset, cfg: TrainConfig, standardization: Standardization | None = None
) -> tuple[LinearMachine, PocketResult]:
    """Train the whole machine online with the two-sided correction rule.

    Each misclassified example x adds c*x to the true class's weight row
    and subtracts c*x from the erroneous winner's. A whole-machine pocket
    with run-length ratchet keeps the best training accuracy seen. The
    returned PocketResult carries the pocket's flattened weights plus the
    accuracy history.

    standardization, when given, is only attached to the returned machine
    for use at prediction time; ds is assumed already transformed.
    """
    counts = np.bincount(ds.y, minlength=ds.r + 1)[1:]
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise TrainingError(
            f"every class needs at least one example; class(es) "
            f"{(missing + 1).tolist()} are empty"
        )

    xb = extend(ds.X)
    check_range(xb, cfg)
    order = _kernels.epochs(len(ds), cfg.max_iterations, cfg.seed)
    W, acc, used, history = _kernels.lm_loop(xb, ds.y - 1, ds.r, order, float(cfg.c))
    lm = LinearMachine(r=ds.r, m=ds.m, weights=W, standardization=standardization)
    return lm, PocketResult(W.ravel(), acc, used, history)
