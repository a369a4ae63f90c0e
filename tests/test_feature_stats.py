import numpy as np
import pytest

from pairnet import (
    Dataset,
    class_mean_variance,
    group_variance,
    sigma_intervals,
    significance,
)
from pairnet.errors import ParameterError


def make_dataset(X, y, r=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    r = r or int(y.max())
    return Dataset(
        X, y, np.asarray(y),  # one record per class is enough here
        tuple(f"f{i + 1}" for i in range(X.shape[1])),
        tuple(str(k) for k in range(1, r + 1)),
    )


def significance_oracle(X, y):
    """Plain-loop recomputation of v, s_sum, and d per feature."""
    classes = sorted(set(int(c) for c in y))
    r = len(classes)
    m = X.shape[1]
    v = np.zeros(m)
    s_sum = np.zeros(m)
    for j in range(m):
        means = []
        for c in classes:
            vals = [X[i, j] for i in range(len(y)) if y[i] == c]
            mu = sum(vals) / len(vals)
            means.append(mu)
            s_sum[j] += sum((x - mu) ** 2 for x in vals) / len(vals)
        grand = sum(means) / r
        v[j] = sum((mu - grand) ** 2 for mu in means) / r
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(s_sum > 1e-12, 100.0 * v / s_sum, np.where(v > 1e-12, np.inf, 0.0))
    return v, s_sum, d


class TestClassMeanVariance:
    def test_two_class_means(self):
        ds = make_dataset([[1.0], [1.0], [5.0], [5.0]], [1, 1, 2, 2])
        v, means = class_mean_variance(ds, 0)
        np.testing.assert_allclose(means, [1.0, 5.0])
        assert v == pytest.approx(4.0)

    def test_equal_means_zero_variance(self):
        ds = make_dataset([[2.0], [2.0], [2.0]], [1, 1, 2])
        v, _ = class_mean_variance(ds, 0)
        assert v == 0.0


class TestGroupVariance:
    def test_direct_arithmetic(self):
        ds = make_dataset([[0.0], [2.0], [9.0]], [1, 1, 2])
        assert group_variance(ds, 1, 0) == pytest.approx(1.0)

    def test_single_example_class(self):
        ds = make_dataset([[0.0], [2.0], [9.0]], [1, 1, 2])
        assert group_variance(ds, 2, 0) == 0.0

    def test_constant_class(self):
        ds = make_dataset([[3.0], [3.0], [1.0]], [1, 1, 2])
        assert group_variance(ds, 1, 0) == 0.0


class TestSignificance:
    def test_worked_two_class(self):
        ds = make_dataset([[0.0], [2.0], [4.0], [6.0]], [1, 1, 2, 2])
        rep = significance(ds)
        assert rep.v[0] == pytest.approx(4.0)
        assert rep.s_sum[0] == pytest.approx(2.0)
        assert rep.d[0] == pytest.approx(200.0)

    def test_constant_feature_scores_zero(self):
        X = np.column_stack([np.full(6, 7.0), np.arange(6, dtype=float)])
        ds = make_dataset(X, [1, 1, 1, 2, 2, 2])
        rep = significance(ds)
        assert rep.d[0] == 0.0
        assert rep.rank_of(0) == 2  # ranked last of the two features

    def test_zero_scatter_separating_feature_is_infinite(self):
        # class means differ but every class is internally constant
        X = np.column_stack([np.repeat([1.0, 5.0], 3), np.random.default_rng(0).normal(size=6)])
        ds = make_dataset(X, np.repeat([1, 2], 3))
        rep = significance(ds)
        assert np.isinf(rep.d[0])
        assert rep.rank_of(0) == 1

    def test_spread_ordering(self):
        # feature A: class means 10x more spread than B at equal within-variance
        rng = np.random.default_rng(1)
        n = 200
        y = np.repeat([1, 2], n // 2)
        a = np.where(y == 1, 0.0, 10.0) + rng.normal(0, 1, n)
        b = np.where(y == 1, 0.0, 1.0) + rng.normal(0, 1, n)
        ds = make_dataset(np.column_stack([a, b]), y)
        rep = significance(ds)
        assert rep.d[0] > rep.d[1]
        assert rep.rank_of(0) == 1

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            r = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            n_per = int(rng.integers(2, 8))
            y = np.repeat(np.arange(1, r + 1), n_per)
            X = rng.normal(size=(len(y), m)) * rng.uniform(0.5, 3.0, size=m)
            X += y[:, None] * rng.uniform(0, 2.0, size=m)
            ds = make_dataset(X, y, r=r)
            rep = significance(ds)
            v, s_sum, d = significance_oracle(X, y)
            np.testing.assert_allclose(rep.v, v, rtol=1e-9)
            np.testing.assert_allclose(rep.s_sum, s_sum, rtol=1e-9)
            np.testing.assert_allclose(rep.d, d, rtol=1e-9)
            assert np.all(rep.d >= 0.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        y = np.repeat([1, 2, 3], 20)
        X = rng.normal(size=(60, 3)) + y[:, None]
        ds = make_dataset(X, y)
        base = significance(ds).d
        for a, b in ((2.0, 5.0), (-3.0, 0.0), (0.25, -7.0)):
            X2 = X.copy()
            X2[:, 1] = a * X2[:, 1] + b
            rep2 = significance(make_dataset(X2, y))
            np.testing.assert_allclose(rep2.d[1], base[1], rtol=1e-9)

    def test_shuffle_invariance(self):
        rng = np.random.default_rng(4)
        y = np.repeat([1, 2], 30)
        X = rng.normal(size=(60, 4)) + y[:, None]
        ds = make_dataset(X, y)
        rep = significance(ds)
        perm = rng.permutation(60)
        ds2 = make_dataset(X[perm], y[perm])
        rep2 = significance(ds2)
        np.testing.assert_allclose(rep2.d, rep.d, rtol=1e-12)
        np.testing.assert_array_equal(rep2.ranking, rep.ranking)


class TestSigmaIntervals:
    def test_direct_arithmetic(self):
        ds = make_dataset([[0.0], [2.0], [5.0], [7.0]], [1, 1, 2, 2])
        bands = sigma_intervals(ds, 0, k=3.0)
        np.testing.assert_allclose(bands[0], [1.0, -2.0, 4.0])

    def test_constant_class_zero_width(self):
        ds = make_dataset([[4.0], [4.0], [1.0]], [1, 1, 2])
        bands = sigma_intervals(ds, 0, k=3.0)
        np.testing.assert_allclose(bands[0], [4.0, 4.0, 4.0])

    def test_k_zero_collapses_to_mean(self):
        ds = make_dataset([[0.0], [2.0], [5.0]], [1, 1, 2])
        bands = sigma_intervals(ds, 0, k=0.0)
        np.testing.assert_allclose(bands[0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("k", [-1.0, float("nan"), float("inf"), -float("inf"),
                                   np.float64("nan"), "3", None])
    def test_k_must_be_finite_and_non_negative(self, k):
        ds = make_dataset([[0.0], [2.0], [5.0]], [1, 1, 2])
        with pytest.raises(ParameterError, match="finite number >= 0"):
            sigma_intervals(ds, 0, k=k)

    @pytest.mark.parametrize("j", [2, 999, -1, 1.0, "0", None])
    def test_j_must_index_a_feature(self, j):
        ds = make_dataset([[0.0, 1.0], [2.0, 1.0], [5.0, 1.0]], [1, 1, 2])
        with pytest.raises(ParameterError, match=r"integer in 0\.\.1"):
            sigma_intervals(ds, j)

    def test_numpy_integer_j_accepted(self):
        ds = make_dataset([[0.0, 1.0], [2.0, 1.0], [5.0, 1.0]], [1, 1, 2])
        np.testing.assert_array_equal(sigma_intervals(ds, np.int64(1)), sigma_intervals(ds, 1))
