"""Feature relevance statistics: between-class variance of the class means
against the summed within-class (group) variances, and k-sigma interval
summaries per class.

The significance score of feature j is 100 * v_j / sum_i s_i(j), where v_j
is the population variance of the r class means and s_i(j) the population
variance of the feature within class i. Large scores flag features whose
class means spread widely relative to the scatter inside the classes.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import EmptyInputError, ParameterError, SchemaError

ZERO_EPS = 1e-12


@dataclass(frozen=True)
class SignificanceReport:
    """Per-feature scores plus a descending-significance ranking.

    v[j]: variance of the class means of feature j (divisor r).
    s_sum[j]: sum over classes of the within-class variances (divisor N_i).
    d[j]: 100 * v / s_sum; +inf when the class means differ with zero
    within-class scatter, 0 when the feature is constant everywhere.
    ranking: feature indices sorted by descending d (stable, so equal
    scores keep their original order).
    """

    v: np.ndarray
    s_sum: np.ndarray
    d: np.ndarray
    ranking: np.ndarray

    def rank_of(self, j: int) -> int:
        """1-based rank of feature j (1 = most significant)."""
        return int(np.flatnonzero(self.ranking == j)[0]) + 1


def _class_blocks(ds: Dataset):
    for class_id in range(1, ds.r + 1):
        block = ds.X[ds.y == class_id]
        if block.shape[0] == 0:
            raise EmptyInputError(f"class {class_id} has no examples")
        yield class_id, block


def class_mean_variance(ds: Dataset, j: int) -> tuple[float, np.ndarray]:
    """Population variance (divisor r) of feature j's class means.

    Returns (v, class_means) with class_means in class-id order.
    """
    means = np.asarray([block[:, j].mean() for _, block in _class_blocks(ds)])
    return float(np.var(means)), means


def group_variance(ds: Dataset, i: int, j: int) -> float:
    """Population variance (divisor N_i) of feature j within class i."""
    if not (1 <= i <= ds.r):
        raise ParameterError(f"class id {i} out of range 1..{ds.r}")
    block = ds.X[ds.y == i]
    if block.shape[0] == 0:
        raise EmptyInputError(f"class {i} has no examples")
    return float(np.var(block[:, j]))


def significance(ds: Dataset) -> SignificanceReport:
    """Score every feature and rank them by descending significance.

    A feature whose v or s_sum overflows float64 raises SchemaError; a
    finite ratio too large for float64 scores +inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        class_means, s_sum = [], np.zeros(ds.m)
        for _, block in _class_blocks(ds):
            class_means.append(block.mean(axis=0))
            s_sum += np.var(block, axis=0)
        v = np.var(np.vstack(class_means), axis=0)
        d = np.where(
            s_sum > ZERO_EPS,
            100.0 * v / np.where(s_sum > ZERO_EPS, s_sum, 1.0),
            np.where(v > ZERO_EPS, np.inf, 0.0),
        )
    bad = np.flatnonzero(~(np.isfinite(v) & np.isfinite(s_sum)))
    if bad.size:
        k = bad[0]
        raise SchemaError(
            f"feature '{ds.feature_names[k]}' is too large for significance: "
            f"v {v[k]}, s_sum {s_sum[k]}"
        )
    ranking = np.argsort(-d, kind="stable")
    return SignificanceReport(v=v, s_sum=s_sum, d=d, ranking=ranking)


def sigma_intervals(ds: Dataset, j: int, k: float = 3.0) -> np.ndarray:
    """Per-class (mean, mean - k*sigma, mean + k*sigma) for feature j.

    sigma is the within-class population std; single-example or constant
    classes get zero-width bands. Rows are in class-id order, shape (r, 3).
    A class whose mean, std or band ends overflow float64 raises
    SchemaError.
    """
    if not (isinstance(k, numbers.Real) and math.isfinite(k) and k >= 0):
        raise ParameterError(f"k must be a finite number >= 0, got {k}")
    if not (isinstance(j, numbers.Integral) and 0 <= j < ds.m):
        raise ParameterError(
            f"feature index j must be an integer in 0..{ds.m - 1}, got {j}"
        )
    rows = []
    for class_id, block in _class_blocks(ds):
        with np.errstate(over="ignore", invalid="ignore"):
            mu = block[:, j].mean()
            sd = block[:, j].std()
            row = (mu, mu - k * sd, mu + k * sd)
        if not np.isfinite(row).all():
            raise SchemaError(
                f"feature '{ds.feature_names[j]}' is too large for intervals: "
                f"class {class_id} mean {mu}, std {sd}"
            )
        rows.append(row)
    return np.asarray(rows)
