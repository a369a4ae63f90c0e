import numpy as np
import pytest

from pairnet import (
    DimensionError,
    EmptyInputError,
    ParameterError,
    TrainConfig,
    TrainingError,
    activation,
    error_correct,
    tlu_output,
    train_pocket,
)


class TestActivation:
    def test_direct_arithmetic(self):
        assert activation(np.array([-0.5, 1.0, 0.0]), np.array([1.0, 0.0])) == 0.5

    def test_zero_weights(self):
        assert activation(np.zeros(3), np.array([7.0, -2.0])) == 0.0

    def test_sum(self):
        assert activation(np.array([0.0, 1.0, 1.0]), np.array([2.0, 3.0])) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            activation(np.zeros(3), np.zeros(3))


class TestTluOutput:
    def test_positive(self):
        assert tlu_output(np.array([0.5, 0.0]), np.array([1.0])) == 1

    def test_negative(self):
        assert tlu_output(np.array([-2.0, 0.0]), np.array([1.0])) == -1

    def test_zero_activation_is_negative(self):
        assert tlu_output(np.zeros(2), np.array([5.0])) == -1


class TestErrorCorrect:
    def test_zero_start(self):
        w = error_correct(np.zeros(3), np.array([1.0, 0.0]), target=1, c=1.0)
        np.testing.assert_array_equal(w, [1.0, 1.0, 0.0])

    def test_exact_cancellation(self):
        w = error_correct(np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0]), target=-1, c=1.0)
        np.testing.assert_array_equal(w, [0.0, 0.0, 0.0])

    def test_linear_in_c(self):
        x = np.array([2.0, -3.0])
        full = error_correct(np.zeros(3), x, 1, c=1.0)
        half = error_correct(np.zeros(3), x, 1, c=0.5)
        np.testing.assert_allclose(half, full / 2)

    def test_input_unmodified(self):
        w = np.array([1.0, 2.0])
        error_correct(w, np.array([3.0]), -1, c=1.0)
        np.testing.assert_array_equal(w, [1.0, 2.0])

    def test_bad_c(self):
        with pytest.raises(ParameterError):
            error_correct(np.zeros(2), np.array([1.0]), 1, c=0.0)

    @pytest.mark.parametrize("c", [-1.0, float("nan"), float("inf"), np.float64("inf"),
                                   "1.0", None])
    def test_c_must_be_finite_and_positive(self, c):
        with pytest.raises(ParameterError, match="finite number > 0"):
            error_correct(np.zeros(2), np.array([1.0]), 1, c=c)

    def test_margin_gain(self):
        # each correction moves target*activation up by exactly c*(1 + |x|^2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.integers(1, 6)
            w = rng.normal(size=m + 1)
            x = rng.normal(size=m)
            target = int(rng.choice([-1, 1]))
            c = float(rng.uniform(0.1, 2.0))
            before = target * activation(w, x)
            after = target * activation(error_correct(w, x, target, c), x)
            gain = c * (1.0 + float(x @ x))
            assert after > before
            assert after - before == pytest.approx(gain, rel=1e-9)


class TestTrainPocket:
    def test_separable_1d(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        t = np.array([-1, -1, 1, 1])
        res = train_pocket(X, t, TrainConfig(max_iterations=1000, seed=0))
        assert res.train_accuracy == 1.0

    def test_contradictory_points(self):
        X = np.array([[1.0], [1.0]])
        t = np.array([1, -1])
        res = train_pocket(X, t, TrainConfig(max_iterations=500, seed=0))
        assert res.train_accuracy == 0.5

    def test_beats_bruteforce_threshold(self):
        # non-separable 1-D layout (+, -, +): the pocket should find the
        # best single threshold, enumerated exhaustively here
        rng = np.random.default_rng(7)
        x = np.concatenate(
            [rng.uniform(-3, -2, 30), rng.uniform(-0.5, 0.5, 30), rng.uniform(2, 3, 30)]
        )
        t = np.concatenate([np.ones(30), -np.ones(30), np.ones(30)])
        xs = np.sort(x)
        thresholds = np.concatenate([[xs[0] - 1], (xs[1:] + xs[:-1]) / 2, [xs[-1] + 1]])
        best = max(
            float(np.mean(np.where(sign * (x - thr) > 0, 1, -1) == t))
            for thr in thresholds
            for sign in (1, -1)
        )
        res = train_pocket(x.reshape(-1, 1), t, TrainConfig(max_iterations=20000, seed=0))
        assert res.train_accuracy >= best

    def test_one_sided_targets(self):
        with pytest.raises(TrainingError):
            train_pocket(np.array([[1.0], [2.0]]), np.array([1, 1]), TrainConfig())

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            train_pocket(np.empty((0, 2)), np.empty(0), TrainConfig())

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        t = np.where(rng.random(60) > 0.5, 1, -1)
        cfg = TrainConfig(max_iterations=3000, seed=77)
        a = train_pocket(X, t, cfg)
        b = train_pocket(X, t, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.accuracy_history == b.accuracy_history
        assert a.iterations_used == b.iterations_used

    def test_history_monotone_nondecreasing(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 2))
        t = np.where(rng.random(80) > 0.4, 1, -1)
        for seed in range(10):
            res = train_pocket(X, t, TrainConfig(max_iterations=2000, seed=seed))
            accs = [a for _, a in res.accuracy_history]
            assert all(b > a for a, b in zip(accs, accs[1:]))
            # entry 0 is the zero-weight classifier's accuracy
            assert res.accuracy_history[0][0] == 0
            assert res.train_accuracy >= res.accuracy_history[0][1]

    def test_largest_budget_stops_at_full_accuracy(self):
        # The visit order is drawn one epoch at a time, so the largest
        # budget costs no more than the visits that training makes.
        X = np.array([[-2.0], [-1.0], [1.0], [2.0], [0.5]])
        t = np.array([-1, -1, 1, 1, 1])
        big = train_pocket(X, t, TrainConfig(max_iterations=2**63 - 1, seed=0))
        small = train_pocket(X, t, TrainConfig(max_iterations=5000, seed=0))
        assert big.train_accuracy == 1.0 and big.iterations_used < 5000
        np.testing.assert_array_equal(big.weights, small.weights)
        assert big.iterations_used == small.iterations_used
        assert big.accuracy_history == small.accuracy_history

    def test_cyclic_order_without_shuffle(self):
        X = np.array([[-1.0], [2.0]])
        t = np.array([-1, 1])
        res = train_pocket(X, t, TrainConfig(max_iterations=100, seed=0))
        assert res.train_accuracy == 1.0

    def test_training_at_half_the_range_limit_stays_finite(self):
        # Extended rows: max|x| = 2 and the largest row L1 norm is 3.
        X = np.array([[-2.0], [-1.0], [1.0], [2.0], [1.5]])
        t = np.array([-1, -1, 1, 1, -1])
        c = 2.0**1000 / (1000 * 2 * 3) / 2
        res = train_pocket(X, t, TrainConfig(c=c, max_iterations=1000, seed=0))
        assert np.isfinite(res.weights).all()

    @pytest.mark.parametrize("c,scale", [(2.0**1000 / 6000, 1.0), (1.0, 1e150)])
    def test_training_that_could_overflow_is_refused(self, c, scale):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]]) * scale
        t = np.array([-1, -1, 1, 1])
        with pytest.raises(TrainingError, match=r"could overflow .* not below 2\*\*1000"):
            train_pocket(X, t, TrainConfig(c=c, max_iterations=1000, seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 3, 1500])
    def test_non_finite_cell_is_refused(self, bad, row):
        # Row 1500 lies in the second block that check_range scans; a nan
        # there must not be dropped by the running maximum.
        X = np.where(np.arange(2000) % 2, 1.0, -1.0)[:, None] * np.array([1.0, 2.0])
        X[row, 1] = bad
        t = np.where(np.arange(2000) % 2, 1, -1)
        with pytest.raises(TrainingError, match=r"training input is not finite: max\|x\| = (nan|inf)"):
            train_pocket(X, t, TrainConfig(max_iterations=100, seed=0))

    def test_bad_config(self):
        with pytest.raises(ParameterError):
            TrainConfig(c=-1.0)
        with pytest.raises(ParameterError):
            TrainConfig(max_iterations=0)

    @pytest.mark.parametrize("c", [0.0, -0.5, float("nan"), float("inf"), -float("inf"),
                                   np.float64("nan"), "1.0", None])
    def test_c_must_be_finite_and_positive(self, c):
        with pytest.raises(ParameterError, match="finite number > 0"):
            TrainConfig(c=c)

    @pytest.mark.parametrize("max_iterations", [0, -3, 2.5, 20000.0, True, False, "10", None,
                                                2**63, 10**400])
    def test_max_iterations_must_be_a_positive_integer(self, max_iterations):
        with pytest.raises(ParameterError, match="integer >= 1"):
            TrainConfig(max_iterations=max_iterations)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, "0", None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("c,max_iterations", [(1, 1), (0.5, np.int64(7)), (np.float64(2.0), 20_000),
                                                  (1, 2**63 - 1)])
    def test_valid_config_accepted(self, c, max_iterations):
        cfg = TrainConfig(c=c, max_iterations=max_iterations)
        assert cfg.c == c and cfg.max_iterations == max_iterations
