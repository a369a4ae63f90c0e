"""The lazy visit order and the training loops against eager and scalar
references, and the training wiring against the same references.

``build_visit_order`` below draws every epoch's permutation up front; it is
the oracle for ``visit_order``, which draws each only when the loop reaches
its epoch. ``_pocket_loop_impl`` and ``_lm_loop_impl`` are plain scalar
loops that sum every dot product left to right, indexing a list of the
order; they are the oracle for ``pocket_loop`` and ``lm_loop``, which take
any iterable order and decide by BLAS dot products. Probe
problems use small-integer features (and corrections of 1 or 0.5) so every
dot product is exact in float64 regardless of summation order; any
divergence is then a real decision-sequence difference, not rounding
noise.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from pairnet import Dataset, TrainConfig, derive_pair_seed, train_pairwise, train_pocket
from pairnet import _kernels
from pairnet._kernels import lm_loop, pocket_loop, visit_order
from pairnet.linear_machine import lm_train_pocket


def build_visit_order(n, max_iters, seed):
    """The eager visit order: every epoch's permutation of 0..n-1, drawn up
    front from the generator seeded with seed and cut to max_iters."""
    rng = np.random.default_rng(seed)
    epochs = -(-max_iters // n)
    parts = [rng.permutation(n) for _ in range(epochs)]
    return np.concatenate(parts)[:max_iters].tolist()


def _pocket_loop_impl(xb, targets, order, c):
    """Pocket algorithm with ratchet over a fixed visit order.

    xb is the (n, m+1) extended example matrix (column 0 all ones), targets
    holds +/-1 per row, and order lists the example index visited at each
    iteration. The pocket starts as the zero vector and is replaced only
    when the current perceptron's run of correct classifications exceeds
    the pocket's best run AND its full-set accuracy is strictly better.
    The accuracy of the current perceptron is cached between errors so the
    expensive full pass runs at most once per error-free run.

    Returns (pocket_weights, pocket_accuracy, iterations_used, history).
    """
    n, d = xb.shape
    pi = np.zeros(d, dtype=np.float64)
    pocket = np.zeros(d, dtype=np.float64)

    correct0 = 0
    for i in range(n):
        if targets[i] < 0.0:
            correct0 += 1
    pocket_acc = correct0 / n
    history = [(0, pocket_acc)]

    best_run = 0
    run = 0
    cached_acc = -1.0
    it = 0
    while it < len(order) and pocket_acc < 1.0:
        idx = order[it]
        act = 0.0
        for k in range(d):
            act += pi[k] * xb[idx, k]
        out = 1.0 if act > 0.0 else -1.0
        if out == targets[idx]:
            run += 1
            if run > best_run:
                if cached_acc < 0.0:
                    cnt = 0
                    for i in range(n):
                        a = 0.0
                        for k in range(d):
                            a += pi[k] * xb[i, k]
                        o = 1.0 if a > 0.0 else -1.0
                        if o == targets[i]:
                            cnt += 1
                    cached_acc = cnt / n
                if cached_acc > pocket_acc:
                    for k in range(d):
                        pocket[k] = pi[k]
                    pocket_acc = cached_acc
                    best_run = run
                    history.append((it + 1, pocket_acc))
        else:
            t = c * targets[idx]
            for k in range(d):
                pi[k] += t * xb[idx, k]
            run = 0
            cached_acc = -1.0
        it += 1

    return pocket, pocket_acc, it, tuple(history)


def _lm_loop_impl(xb, y0, r, order, c):
    """Jointly trained linear machine with a whole-machine pocket ratchet.

    y0 holds 0-based class indices. Each visit classifies one example by
    winner-take-all over the r discriminants (ties to the lowest index);
    a misclassification adds c*x to the true class's weight row and
    subtracts it from the winner's. The pocket stores the best whole-machine
    training accuracy seen, guarded by the same run-length ratchet and
    accuracy cache as the single-unit pocket.

    Returns (pocket_weights (r, m+1), pocket_accuracy, iterations_used,
    history).
    """
    n, d = xb.shape
    W = np.zeros((r, d), dtype=np.float64)
    pocket = np.zeros((r, d), dtype=np.float64)

    correct0 = 0
    for i in range(n):
        if y0[i] == 0:
            correct0 += 1
    pocket_acc = correct0 / n
    history = [(0, pocket_acc)]

    best_run = 0
    run = 0
    cached_acc = -1.0
    it = 0
    while it < len(order) and pocket_acc < 1.0:
        idx = order[it]
        best_j = 0
        best_g = 0.0
        for j in range(r):
            g = 0.0
            for k in range(d):
                g += W[j, k] * xb[idx, k]
            if j == 0 or g > best_g:
                best_g = g
                best_j = j
        true_j = y0[idx]
        if best_j == true_j:
            run += 1
            if run > best_run:
                if cached_acc < 0.0:
                    cnt = 0
                    for i in range(n):
                        bj = 0
                        bg = 0.0
                        for j in range(r):
                            g = 0.0
                            for k in range(d):
                                g += W[j, k] * xb[i, k]
                            if j == 0 or g > bg:
                                bg = g
                                bj = j
                        if bj == y0[i]:
                            cnt += 1
                    cached_acc = cnt / n
                if cached_acc > pocket_acc:
                    for j in range(r):
                        for k in range(d):
                            pocket[j, k] = W[j, k]
                    pocket_acc = cached_acc
                    best_run = run
                    history.append((it + 1, pocket_acc))
        else:
            for k in range(d):
                upd = c * xb[idx, k]
                W[true_j, k] += upd
                W[best_j, k] -= upd
            run = 0
            cached_acc = -1.0
        it += 1

    return pocket, pocket_acc, it, tuple(history)


def extended(X):
    return np.ascontiguousarray(np.hstack([np.ones((X.shape[0], 1)), X]))


def integer_problem(seed, n=60, m=3):
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, m)).astype(np.float64)
    xb = extended(X)
    targets = rng.choice([-1.0, 1.0], size=n)
    targets[0], targets[1] = 1.0, -1.0
    order = list(visit_order(n, 5000, seed + 1))
    return xb, targets, order


def integer_lm_problem(seed, n=60, m=3, r=4):
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, m)).astype(np.float64)
    xb = extended(X)
    y0 = rng.integers(0, r, size=n).astype(np.int64)
    y0[:r] = np.arange(r)
    order = list(visit_order(n, 5000, seed + 1))
    return xb, y0, order


class TestVisitOrder:
    def test_shuffled_epochs_are_permutations(self):
        order = list(visit_order(5, 12, 0))
        assert sorted(order[:5]) == [0, 1, 2, 3, 4]
        assert sorted(order[5:10]) == [0, 1, 2, 3, 4]
        assert len(order) == 12

    def test_deterministic(self):
        assert list(visit_order(7, 40, 5)) == list(visit_order(7, 40, 5))

    @pytest.mark.parametrize("max_iters", [1, 6, 7, 8, 14, 40, 701])
    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_matches_the_eager_order(self, seed, max_iters):
        # Below one epoch, exactly one (7), just past it, and many.
        got = list(visit_order(7, max_iters, seed))
        assert got == build_visit_order(7, max_iters, seed)
        assert all(type(i) is int for i in got)

    def test_draws_each_epoch_when_reached(self):
        order = visit_order(4, 2**63 - 1, 3)
        assert list(itertools.islice(order, 10)) == build_visit_order(4, 10, 3)

    def test_bad_seed_fails_before_any_visit(self):
        with pytest.raises(ValueError):
            visit_order(4, 10, -1)


def assert_same_result(a, b):
    """All four returned values agree exactly: weights, accuracy, visits
    used and the (visit, accuracy) history."""
    assert len(a) == len(b) == 4
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]
    assert a[2] == b[2]
    assert a[3] == b[3]


def separable_problem(seed, n=40, m=2):
    """Integer points labelled by the sign of a fixed integer hyperplane,
    with no point on the plane, so the pocket reaches accuracy 1.0."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, m)).astype(np.float64)
    act = 1.0 + X @ np.arange(1.0, m + 1.0) * 2.0
    targets = np.where(act > 0.0, 1.0, -1.0)
    xb = extended(X)
    order = list(visit_order(n, 5000, seed + 1))
    return xb, targets, order


class TestReferenceEquivalence:
    """The scalar reference loops are the oracle that the training loops
    must match on every returned value."""

    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_pocket_matches_reference(self, seed, c):
        xb, targets, order = integer_problem(seed)
        assert_same_result(
            _pocket_loop_impl(xb, targets, order, c),
            pocket_loop(xb, targets, order, c),
        )

    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_lm_matches_reference(self, seed, c):
        xb, y0, order = integer_lm_problem(seed)
        assert_same_result(
            _lm_loop_impl(xb, y0, 4, order, c),
            lm_loop(xb, y0, 4, order, c),
        )

    @pytest.mark.parametrize("max_iters", [1, 7, 37])
    def test_budget_shorter_than_an_epoch(self, max_iters):
        xb, targets, order = integer_problem(3)
        order = order[:max_iters]
        res = pocket_loop(xb, targets, order, 1.0)
        assert res[2] == max_iters < xb.shape[0]
        assert_same_result(_pocket_loop_impl(xb, targets, order, 1.0), res)
        xb, y0, order = integer_lm_problem(3)
        order = order[:max_iters]
        res = lm_loop(xb, y0, 4, order, 1.0)
        assert res[2] == max_iters
        assert_same_result(_lm_loop_impl(xb, y0, 4, order, 1.0), res)

    @pytest.mark.parametrize("seed", range(3))
    def test_separable_stops_at_full_accuracy(self, seed):
        xb, targets, order = separable_problem(seed)
        res = pocket_loop(xb, targets, order, 1.0)
        assert res[1] == 1.0 and res[2] < 5000
        assert res[3][-1][0] == res[2]  # the last visit made the final swap
        assert_same_result(_pocket_loop_impl(xb, targets, order, 1.0), res)

    def test_separable_lm_stops_at_full_accuracy(self):
        xb = np.array([[1.0, -3.0], [1.0, -1.0], [1.0, 2.0], [1.0, 4.0]])
        y0 = np.array([0, 0, 1, 1], dtype=np.int64)
        order = list(visit_order(4, 1000, 0))
        res = lm_loop(xb, y0, 2, order, 1.0)
        assert res[1] == 1.0 and res[2] < 1000
        assert_same_result(_lm_loop_impl(xb, y0, 2, order, 1.0), res)

    @pytest.mark.parametrize("max_iters", range(1, 9))
    def test_lm_ties_go_to_the_lowest_class(self, max_iters):
        # Identical rows make every discriminant tie at W = 0 and again
        # whenever the classes' corrections balance, both per visit and in
        # the whole-set evaluation.
        xb = np.array([[1.0, 2.0]] * 3)
        y0 = np.array([1, 0, 2], dtype=np.int64)
        order = [1, 0, 1, 2, 1, 0, 2, 1]
        assert_same_result(
            _lm_loop_impl(xb, y0, 3, order[:max_iters], 1.0),
            lm_loop(xb, y0, 3, order[:max_iters], 1.0),
        )


def test_active_path_is_numpy():
    assert _kernels.ACTIVE_PATH == "numpy"


def integer_dataset(seed=0, r=4, n=120, m=3):
    """Features on the integer grid -4..4 and labels unrelated to them, so
    no pair is separable and every dot product stays exact at c = 1."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, m)).astype(np.float64)
    y = np.arange(n) % r + 1
    return Dataset(
        X, y, np.arange(1, n + 1),
        tuple(f"f{k}" for k in range(1, m + 1)),
        tuple(str(k) for k in range(1, r + 1)),
    )


class TestTrainingWiring:
    """train_pairwise and lm_train_pocket hand the loops the rows, targets,
    visit order (its length is the budget) and correction that the reference
    is given here."""

    def test_pairwise_tests_match_reference(self):
        ds = integer_dataset()
        cfg = TrainConfig(c=1.0, max_iterations=3000, seed=5)
        net = train_pairwise(ds, cfg)
        assert len(net.tests) == 6
        for t in net.tests:
            mask = (ds.y == t.i) | (ds.y == t.j)
            targets = np.where(ds.y[mask] == t.i, 1.0, -1.0)
            pair_seed = derive_pair_seed(cfg.seed, t.i, t.j)
            order = build_visit_order(len(targets), cfg.max_iterations, pair_seed)
            ref = _pocket_loop_impl(extended(ds.X[mask]), targets, order, cfg.c)
            assert np.any(ref[0] != 0.0)
            np.testing.assert_array_equal(t.weights, ref[0])

    def test_linear_machine_matches_reference(self):
        ds = integer_dataset()
        cfg = TrainConfig(c=1.0, max_iterations=3000, seed=5)
        lm, result = lm_train_pocket(ds, cfg)
        order = build_visit_order(len(ds), cfg.max_iterations, cfg.seed)
        W, acc, used, history = _lm_loop_impl(
            extended(ds.X), ds.y - 1, ds.r, order, cfg.c
        )
        assert np.any(W != 0.0)
        np.testing.assert_array_equal(lm.weights, W)
        assert result.train_accuracy == acc
        assert result.iterations_used == used
        assert result.accuracy_history == history

    @pytest.mark.parametrize("c, c_float", [(Fraction(1, 2), 0.5), (1, 1.0)])
    def test_any_real_c_trains_as_its_float(self, c, c_float):
        # TrainConfig accepts any numbers.Real; a Fraction times a float
        # array would make an object array, so training must use float(c).
        ds = integer_dataset()
        got, want = train_both(ds, c), train_both(ds, c_float)
        for g, w in zip(got, want):
            assert g.weights.tobytes() == w.weights.tobytes()
            assert_same_result(fields(g), fields(w))
        for result in got + want:
            assert type(result.train_accuracy) is float
            assert type(result.iterations_used) is int
            assert type(result.accuracy_history) is tuple
            for entry in result.accuracy_history:
                assert type(entry) is tuple and len(entry) == 2
                assert type(entry[0]) is int and type(entry[1]) is float


def fields(result):
    return (result.weights, result.train_accuracy, result.iterations_used,
            result.accuracy_history)


def train_both(ds, c):
    """train_pocket on classes 1 vs 2, and lm_train_pocket on all of ds."""
    cfg = TrainConfig(c=c, max_iterations=2000, seed=3)
    mask = (ds.y == 1) | (ds.y == 2)
    targets = np.where(ds.y[mask] == 1, 1.0, -1.0)
    return train_pocket(ds.X[mask], targets, cfg), lm_train_pocket(ds, cfg)[1]
