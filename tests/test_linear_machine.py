import itertools

import numpy as np
import pytest

from pairnet import (
    Dataset,
    LinearMachine,
    Standardization,
    TrainConfig,
    TrainingError,
    lm_classify,
    lm_discriminants,
    lm_train_pocket,
)
from pairnet.errors import DimensionError
from pairnet.tlu import BLOCK_ROWS


def make_dataset(X, y, records=None, r=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    r = r or int(y.max())
    if records is None:
        records = np.arange(1, len(y) + 1)
    return Dataset(
        X, y, records,
        tuple(f"f{i + 1}" for i in range(X.shape[1])),
        tuple(str(k) for k in range(1, r + 1)),
    )


class TestDiscriminants:
    def test_two_class(self):
        lm = LinearMachine(r=2, m=1, weights=np.array([[0.0, 1.0], [0.0, -1.0]]))
        np.testing.assert_array_equal(lm_discriminants(lm, np.array([2.0])), [2.0, -2.0])

    def test_all_zero_machine(self):
        lm = LinearMachine(r=3, m=2, weights=np.zeros((3, 3)))
        np.testing.assert_array_equal(lm_discriminants(lm, np.array([5.0, -1.0])), [0, 0, 0])

    def test_against_dot_product_oracle(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(3, 5))
        lm = LinearMachine(r=3, m=4, weights=W)
        for _ in range(20):
            x = rng.normal(size=4)
            expected = [W[j, 0] + sum(W[j, 1 + i] * x[i] for i in range(4)) for j in range(3)]
            np.testing.assert_allclose(lm_discriminants(lm, x), expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        lm = LinearMachine(r=2, m=2, weights=np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            lm_discriminants(lm, np.array([1.0]))

    def test_bad_weight_shape(self):
        with pytest.raises(DimensionError):
            LinearMachine(r=2, m=2, weights=np.zeros((2, 2)))


class TestClassify:
    def test_winner(self):
        lm = LinearMachine(r=2, m=1, weights=np.array([[0.0, 1.0], [0.0, -1.0]]))
        assert lm_classify(lm, np.array([2.0])) == 1

    def test_tie_goes_to_lowest_id(self):
        lm = LinearMachine(r=3, m=1, weights=np.zeros((3, 2)))
        assert lm_classify(lm, np.array([4.0])) == 1

    def test_middle_winner(self):
        W = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
        lm = LinearMachine(r=3, m=1, weights=W)
        assert lm_classify(lm, np.array([0.0])) == 2

    @pytest.mark.parametrize("n", [1, 2 * BLOCK_ROWS + 37])
    def test_blocks_match_rows(self, n):
        # Discriminants x1, x2, x3, each exact: rows with a two-way tie at
        # the top, and rows where all three tie, sit on both sides of each
        # block boundary and at the end.
        st = Standardization(means=np.zeros(3), stds=np.full(3, 0.5))
        lm = LinearMachine(r=3, m=3, weights=np.eye(3, 4, k=1), standardization=st)
        X = np.random.default_rng(3).normal(size=(n, 3))
        ties = {(1.0, 1.0, 0.0): 1, (0.0, 2.0, 2.0): 2, (1.0, 1.0, 1.0): 1}
        at = [k for k in (BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS) if k < n]
        at.append(n - 1)
        for k, row in zip(at, itertools.cycle(ties)):
            X[k] = row
        preds = lm.classify_batch(X)
        np.testing.assert_array_equal(preds, [lm_classify(lm, x) for x in X])
        for k, row in zip(at, itertools.cycle(ties)):
            assert preds[k] == ties[row]


class TestTraining:
    def test_three_separable_clusters(self):
        rng = np.random.default_rng(1)
        X = np.vstack([
            rng.normal([0, 0], 0.3, (30, 2)),
            rng.normal([5, 0], 0.3, (30, 2)),
            rng.normal([0, 5], 0.3, (30, 2)),
        ])
        ds = make_dataset(X, np.repeat([1, 2, 3], 30), np.repeat([1, 2, 3], 30))
        lm, result = lm_train_pocket(ds, TrainConfig(max_iterations=50_000, seed=0))
        assert result.train_accuracy == 1.0
        preds = lm.classify_batch(ds.X)
        assert np.array_equal(preds, ds.y)

    def test_one_example_per_class(self):
        X = np.array([[0.0, 0.0], [1.0, 3.0], [4.0, 1.0], [2.0, 2.0]])
        ds = make_dataset(X, [1, 2, 3, 4])
        _, result = lm_train_pocket(ds, TrainConfig(max_iterations=50_000, seed=0))
        assert result.train_accuracy == 1.0

    def test_empty_class_rejected(self):
        ds = make_dataset([[0.0], [1.0]], [1, 2], r=3)
        with pytest.raises(TrainingError, match="class"):
            lm_train_pocket(ds, TrainConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_is_refused(self, bad):
        ds = make_dataset([[-2.0], [-1.0], [1.0], [2.0]], [1, 1, 2, 3])
        # A Dataset refuses non-finite cells itself; slip one past it to
        # reach the training gate.
        X = ds.X.copy()
        X[2, 0] = bad
        object.__setattr__(ds, "X", X)
        with pytest.raises(TrainingError, match=r"training input is not finite: max\|x\| = (nan|inf)"):
            lm_train_pocket(ds, TrainConfig(max_iterations=1000))

    def test_training_that_could_overflow_is_refused(self):
        ds = make_dataset([[-2e150], [-1e150], [1e150], [2e150]], [1, 1, 2, 3])
        with pytest.raises(TrainingError, match=r"could overflow .* not below 2\*\*1000"):
            lm_train_pocket(ds, TrainConfig(max_iterations=1000))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 3))
        y = rng.integers(1, 4, size=60)
        y[:3] = [1, 2, 3]
        ds = make_dataset(X, y, r=3)
        cfg = TrainConfig(max_iterations=5000, seed=123)
        a, _ = lm_train_pocket(ds, cfg)
        b, _ = lm_train_pocket(ds, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_single_update_changes_both_rows(self):
        # one correction on example x with true class j and winner k must
        # move g_j up and g_k down by exactly c * (1 + |x|^2)
        rng = np.random.default_rng(8)
        for _ in range(25):
            W = rng.normal(size=(3, 4))
            x = rng.normal(size=3)
            lm = LinearMachine(r=3, m=3, weights=W)
            winner = lm_classify(lm, x)
            true = winner % 3 + 1  # any class other than the winner
            c = float(rng.uniform(0.2, 2.0))
            xt = np.concatenate([[1.0], x])
            W2 = W.copy()
            W2[true - 1] += c * xt
            W2[winner - 1] -= c * xt
            before = lm_discriminants(lm, x)
            after = lm_discriminants(LinearMachine(r=3, m=3, weights=W2), x)
            gain = c * (1.0 + float(x @ x))
            assert after[true - 1] - before[true - 1] == pytest.approx(gain, rel=1e-9)
            assert after[winner - 1] - before[winner - 1] == pytest.approx(-gain, rel=1e-9)

    def test_weight_rows_sum_to_zero_exactly(self):
        # every update adds and subtracts the same vector, so with integer
        # inputs the row sum stays bitwise zero through training
        rng = np.random.default_rng(4)
        X = rng.integers(-3, 4, size=(50, 3)).astype(float)
        y = rng.integers(1, 4, size=50)
        y[:3] = [1, 2, 3]
        ds = make_dataset(X, y, r=3)
        lm, _ = lm_train_pocket(ds, TrainConfig(max_iterations=4000, seed=0))
        np.testing.assert_array_equal(lm.weights.sum(axis=0), np.zeros(4))

    def test_classify_invariant_under_common_shift(self):
        rng = np.random.default_rng(6)
        X = rng.integers(-5, 6, size=(40, 2)).astype(float)
        y = rng.integers(1, 4, size=40)
        y[:3] = [1, 2, 3]
        ds = make_dataset(X, y, r=3)
        lm, _ = lm_train_pocket(ds, TrainConfig(max_iterations=3000, seed=1))
        shift = np.array([3.0, -2.0, 5.0])  # integer-valued keeps ties exact
        shifted = LinearMachine(r=3, m=2, weights=lm.weights + shift)
        np.testing.assert_array_equal(shifted.classify_batch(ds.X), lm.classify_batch(ds.X))
