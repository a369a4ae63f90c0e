"""The lazy visit order and both implementations of the training loops
against eager and scalar references and against each other, the training
wiring against the same references, and the choice between the compiled and
the numpy loops.

``build_visit_order`` below draws every epoch's permutation up front; it is
the oracle for ``epochs`` and the ``visit_order`` over it, which draw each
only when the loop reaches its epoch. ``_pocket_loop_impl`` and ``_lm_loop_impl`` are
plain scalar loops that sum every dot product left to right, indexing a list
of the order; they are the oracle for both implementations of ``pocket_loop``
and ``lm_loop``, which decide by BLAS dot products. Those probe problems use
small-integer features (and corrections of 1 or 0.5) so every dot product is
exact in float64 regardless of summation order; any divergence is then a
real decision-sequence difference, not rounding noise. On random float data,
where the rounding of each BLAS call decides signs near zero, the compiled
loops must match the numpy loops bit for bit instead.

The compiled library's CSV cell conversion (``csv_cell``) is checked against
``float()`` bit for bit, its float formatting (``double_repr``, which the CSV
writer uses) against ``repr`` byte for byte, and each fallback cause against
the CSV and signal-file paths and save_csv too.
"""

import ctypes
import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pairnet
from pairnet import Dataset, TrainConfig, derive_pair_seed, train_pairwise, train_pocket
from pairnet import _kernels, dataset, eeg_features, load_csv, save_csv
from pairnet._kernels import (_indices, epochs, lm_loop, lm_loop_c, lm_loop_numpy,
                              pocket_loop, pocket_loop_c, pocket_loop_numpy)
from pairnet.cli import main
from pairnet.linear_machine import lm_train_pocket


def visit_order(n, max_iters, seed):
    """The example index visited at each of max_iters iterations, as Python
    ints: the epochs of ``epochs(n, max_iters, seed)`` one after another, as
    the numpy loops take them."""
    return _indices(epochs(n, max_iters, seed))


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
        with pytest.raises(ValueError):
            epochs(4, 10, -1)

    @pytest.mark.parametrize("max_iters", [1, 6, 7, 8, 14, 40, 701])
    def test_epochs_hold_the_order_one_epoch_each(self, max_iters):
        got = list(epochs(7, max_iters, 5))
        assert all(e.dtype == np.int64 for e in got)
        assert [len(e) for e in got[:-1]] == [7] * (len(got) - 1)
        assert 1 <= len(got[-1]) <= 7
        assert np.concatenate(got).tolist() == build_visit_order(7, max_iters, 5)


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


def compiled_loops():
    """The compiled loops, or a skip where this process runs the numpy ones
    (say, a numpy whose BLAS is not the scipy-openblas64 it bundles)."""
    loops = _kernels.load()
    if loops is None:
        pytest.skip(f"compiled loops unavailable: {_kernels.FALLBACK_REASON}")
    return loops


def stretches(order, size=7):
    """order cut into int64 arrays of size indices, so that loops cross
    stretch boundaries mid-epoch as well as at them."""
    order = np.asarray(order, dtype=np.int64)
    return [order[s:s + size] for s in range(0, len(order), size)]


def run_pocket(path, xb, targets, order, c):
    if path == "numpy":
        return pocket_loop_numpy(xb, targets, iter(order), c)
    return pocket_loop_c(compiled_loops(), xb, targets, stretches(order), c)


def run_lm(path, xb, y0, r, order, c):
    if path == "numpy":
        return lm_loop_numpy(xb, y0, r, iter(order), c)
    return lm_loop_c(compiled_loops(), xb, y0, r, stretches(order), c)


@pytest.mark.parametrize("path", ["numpy", "c"])
class TestReferenceEquivalence:
    """The scalar reference loops are the oracle that both implementations
    of the training loops must match on every returned value."""

    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_pocket_matches_reference(self, path, seed, c):
        xb, targets, order = integer_problem(seed)
        assert_same_result(
            _pocket_loop_impl(xb, targets, order, c),
            run_pocket(path, xb, targets, order, c),
        )

    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_lm_matches_reference(self, path, seed, c):
        xb, y0, order = integer_lm_problem(seed)
        assert_same_result(
            _lm_loop_impl(xb, y0, 4, order, c),
            run_lm(path, xb, y0, 4, order, c),
        )

    @pytest.mark.parametrize("max_iters", [1, 7, 37])
    def test_budget_shorter_than_an_epoch(self, path, max_iters):
        xb, targets, order = integer_problem(3)
        order = order[:max_iters]
        res = run_pocket(path, xb, targets, order, 1.0)
        assert res[2] == max_iters < xb.shape[0]
        assert_same_result(_pocket_loop_impl(xb, targets, order, 1.0), res)
        xb, y0, order = integer_lm_problem(3)
        order = order[:max_iters]
        res = run_lm(path, xb, y0, 4, order, 1.0)
        assert res[2] == max_iters
        assert_same_result(_lm_loop_impl(xb, y0, 4, order, 1.0), res)

    @pytest.mark.parametrize("seed", range(3))
    def test_separable_stops_at_full_accuracy(self, path, seed):
        xb, targets, order = separable_problem(seed)
        res = run_pocket(path, xb, targets, order, 1.0)
        assert res[1] == 1.0 and res[2] < 5000
        assert res[3][-1][0] == res[2]  # the last visit made the final swap
        assert_same_result(_pocket_loop_impl(xb, targets, order, 1.0), res)

    def test_separable_lm_stops_at_full_accuracy(self, path):
        xb = np.array([[1.0, -3.0], [1.0, -1.0], [1.0, 2.0], [1.0, 4.0]])
        y0 = np.array([0, 0, 1, 1], dtype=np.int64)
        order = list(visit_order(4, 1000, 0))
        res = run_lm(path, xb, y0, 2, order, 1.0)
        assert res[1] == 1.0 and res[2] < 1000
        assert_same_result(_lm_loop_impl(xb, y0, 2, order, 1.0), res)

    @pytest.mark.parametrize("seed", range(3))
    def test_lm_ties_go_to_the_lowest_class(self, path, seed):
        # Integer rows make the discriminants tie at W = 0 and again
        # whenever the classes' corrections cancel, both per visit and in
        # the whole-set evaluation. Numbering the classes backwards turns
        # ties to the lowest class into ties to the highest, and changes the
        # result here, so a loop that broke ties the other way would fail.
        rng = np.random.default_rng(seed)
        xb = extended(rng.integers(-2, 3, size=(12, 2)).astype(np.float64))
        y0 = np.arange(12) % 3
        order = list(visit_order(12, 60, seed))
        want = _lm_loop_impl(xb, y0, 3, order, 1.0)
        backwards = _lm_loop_impl(xb, 2 - y0, 3, order, 1.0)
        assert not np.array_equal(want[0], backwards[0][::-1])
        assert_same_result(want, run_lm(path, xb, y0, 3, order, 1.0))


def float_problem(seed, n, d, r):
    """Random float rows (column 0 all ones), +/-1 targets, class labels
    below r, and a correction c drawn from the seed."""
    rng = np.random.default_rng(seed)
    xb = extended(rng.normal(size=(n, d - 1)) * rng.uniform(0.1, 10.0))
    targets = rng.choice([-1.0, 1.0], size=n)
    targets[0], targets[1] = 1.0, -1.0
    y0 = rng.integers(0, r, size=n)
    y0[:r] = np.arange(r)
    c = float(rng.choice([1.0, 0.5, 0.1, 1 / 3]))
    return xb, targets, y0, c


class TestCompiledMatchesNumpy:
    """On random float data the compiled loops make the numpy loops'
    decisions, so every returned value agrees bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n, d, r", [(2, 2, 2), (9, 3, 3), (60, 8, 4),
                                         (333, 17, 7), (1100, 73, 16)])
    def test_random_float_problems(self, n, d, r, seed):
        loops = compiled_loops()
        xb, targets, y0, c = float_problem(seed, n, d, r)
        # Budgets that end inside an epoch, at its end, and after several.
        for budget in (n // 2 + 1, n, 5 * n + 3, 4000):
            got = pocket_loop_c(loops, xb, targets, epochs(n, budget, seed), c)
            assert_same_result(
                pocket_loop_numpy(xb, targets, visit_order(n, budget, seed), c), got)
            assert got[2] == budget or got[1] == 1.0
            got = lm_loop_c(loops, xb, y0, r, epochs(n, budget, seed), c)
            assert_same_result(
                lm_loop_numpy(xb, y0, r, visit_order(n, budget, seed), c), got)

    @pytest.mark.parametrize("seed", range(4))
    def test_stop_at_full_accuracy_on_float_data(self, seed):
        loops = compiled_loops()
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 5))
        xb = extended(X)
        targets = np.where(X @ rng.normal(size=5) > 0.3, 1.0, -1.0)
        y0 = (targets > 0).astype(np.int64)
        for got, want in (
            (pocket_loop_c(loops, xb, targets, epochs(200, 10**6, seed), 1.0),
             pocket_loop_numpy(xb, targets, visit_order(200, 10**6, seed), 1.0)),
            (lm_loop_c(loops, xb, y0, 2, epochs(200, 10**6, seed), 1.0),
             lm_loop_numpy(xb, y0, 2, visit_order(200, 10**6, seed), 1.0)),
        ):
            assert got[1] == 1.0 and got[2] < 10**6
            assert_same_result(want, got)

    @pytest.mark.parametrize("seed", range(3))
    def test_lm_ties_on_float_rows(self, seed):
        # Rows on a 0.1 grid tie the discriminants at W = 0 and whenever
        # the corrections cancel. Numbering the classes backwards turns
        # ties to the lowest class into ties to the highest, and changes the
        # result here, so a loop that broke ties the other way would fail.
        loops = compiled_loops()
        rng = np.random.default_rng(seed)
        xb = extended(rng.integers(-2, 3, size=(12, 2)) * 0.1)
        y0 = np.arange(12) % 3
        order = list(visit_order(12, 60, seed))
        want = lm_loop_numpy(xb, y0, 3, iter(order), 0.7)
        backwards = lm_loop_numpy(xb, 2 - y0, 3, iter(order), 0.7)
        assert not np.array_equal(want[0], backwards[0][::-1])
        assert_same_result(want, lm_loop_c(loops, xb, y0, 3, stretches(order, 5), 0.7))

    def test_any_stretch_cut_gives_the_same_result(self):
        loops = compiled_loops()
        xb, targets, y0, c = float_problem(3, 50, 6, 3)
        order = list(visit_order(50, 900, 3))
        want = pocket_loop_numpy(xb, targets, iter(order), c)
        for size in (1, 2, 50, 899, 900):
            assert_same_result(want, pocket_loop_c(loops, xb, targets,
                                                   stretches(order, size), c))
        want = lm_loop_numpy(xb, y0, 3, iter(order), c)
        for size in (1, 2, 50, 899, 900):
            assert_same_result(want, lm_loop_c(loops, xb, y0, 3, stretches(order, size), c))

    def test_indices_out_of_range_raise(self):
        loops = compiled_loops()
        xb, targets, y0, c = float_problem(0, 10, 3, 2)
        for bad in ([10], [-1]):
            with pytest.raises(IndexError):
                pocket_loop_c(loops, xb, targets, stretches(bad), c)
            with pytest.raises(IndexError):
                lm_loop_c(loops, xb, y0, 2, stretches(bad), c)
        with pytest.raises(IndexError):
            lm_loop_c(loops, xb, np.full(10, 2), 2, stretches([0]), c)
        # The compiled loops read by raw address, so shapes are checked first.
        with pytest.raises(ValueError):
            pocket_loop_c(loops, xb, targets[:9], stretches([0]), c)
        with pytest.raises(ValueError):
            lm_loop_c(loops, np.asfortranarray(xb), y0, 2, stretches([0]), c)

    @pytest.mark.parametrize("n, d, r", [(1, 3, 2), (5, 1, 2), (5, 3, 1)])
    def test_shapes_numpy_treats_apart_run_the_numpy_loop(self, n, d, r):
        # One row, one column or one class: numpy then calls other BLAS
        # routines than the compiled loops, or none at all.
        xb, targets, y0, c = float_problem(1, max(n, 2), d, 2)
        xb, targets, y0 = xb[:n], targets[:n], np.minimum(y0[:n], r - 1)
        assert_same_result(
            pocket_loop_numpy(xb, targets, visit_order(n, 50, 2), c),
            pocket_loop(xb, targets, epochs(n, 50, 2), c))
        assert_same_result(
            lm_loop_numpy(xb, y0, r, visit_order(n, 50, 2), c),
            lm_loop(xb, y0, r, epochs(n, 50, 2), c))


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


def float_dataset(seed=0, r=4, n=160, m=5):
    """Random float features and labels unrelated to them."""
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, m)), np.arange(n) % r + 1, np.arange(1, n + 1),
        tuple(f"f{k}" for k in range(1, m + 1)),
        tuple(str(k) for k in range(1, r + 1)),
    )


FLOAT_CFG = TrainConfig(c=0.5, max_iterations=2500, seed=4)


@pytest.fixture(scope="module")
def path_models():
    """The pairwise network and linear machine on float_dataset, trained on
    this process's own path, and whether that path is the compiled one."""
    ds = float_dataset()
    net = train_pairwise(ds, FLOAT_CFG)
    lm = lm_train_pocket(ds, FLOAT_CFG)[0]
    return net, lm, _kernels.ACTIVE_PATH == "c"


@pytest.fixture
def fresh_pick(monkeypatch, tmp_path):
    """load() picks again, with an empty cache directory; the module's pick
    comes back after the test."""
    for name in ("_loaded", "ACTIVE_PATH", "FALLBACK_REASON"):
        monkeypatch.setattr(_kernels, name, getattr(_kernels, name))
    monkeypatch.setattr(_kernels, "_loaded", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "pairnet"


def _broken_source(monkeypatch, tmp_path):
    source = tmp_path / "_loops.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(_kernels, "_SOURCE", source)


def _unwritable_cache(monkeypatch, tmp_path):
    # Runs as any user, root included: a directory cannot be made in a file.
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))


# Each cause of a fallback: how to force it, and the start of its reason.
FALLBACKS = {
    "no compiler": (
        lambda mp, tmp: mp.setattr(_kernels, "_COMPILERS", ("pairnet-no-such-cc",)),
        "no C compiler"),
    "failed build": (_broken_source, "C build failed"),
    "unwritable cache": (_unwritable_cache, "cache "),
    "other BLAS": (
        lambda mp, tmp: mp.setattr(_kernels, "_BLAS_LIBRARY", "libno_such_blas*.so"),
        "numpy's BLAS is not"),
    "missing symbol": (
        lambda mp, tmp: mp.setattr(_kernels, "_BLAS_SYMBOLS", (
            "scipy_cblas_ddot64_", "scipy_cblas_dnosuch64_", "scipy_cblas_dgemm64_")),
        "symbol scipy_cblas_dnosuch64_ missing"),
}


class TestPathChoice:
    """load() picks the compiled loops once per process, or falls back to the
    numpy loops for any cause without raising; the models do not depend on
    the path."""

    def test_active_path_names_the_pick(self):
        loops = _kernels.load()
        assert _kernels.ACTIVE_PATH == ("c" if loops else "numpy")
        assert (_kernels.FALLBACK_REASON is None) == (loops is not None)
        assert _kernels.load() is loops

    def test_jobs_do_not_change_the_compiled_model(self, path_models):
        compiled_loops()
        ds = float_dataset()
        for jobs in (1, 2):
            net = train_pairwise(ds, FLOAT_CFG, jobs=jobs)
            assert [t.weights.tobytes() for t in net.tests] == [
                t.weights.tobytes() for t in path_models[0].tests]

    @pytest.mark.parametrize("cause", sorted(FALLBACKS))
    def test_each_fallback_trains_the_same_models(self, monkeypatch, tmp_path,
                                                  path_models, fresh_pick, cause):
        net, lm, compiled = path_models
        if not compiled and cause != "other BLAS":
            pytest.skip(f"compiled loops unavailable: {_kernels.FALLBACK_REASON}")
        force, reason = FALLBACKS[cause]
        force(monkeypatch, tmp_path)
        ds = float_dataset()
        got = train_pairwise(ds, FLOAT_CFG, jobs=2)
        assert _kernels.ACTIVE_PATH == "numpy"
        assert _kernels.FALLBACK_REASON.startswith(reason)
        assert "\n" not in _kernels.FALLBACK_REASON
        assert [t.weights.tobytes() for t in got.tests] == [
            t.weights.tobytes() for t in net.tests]
        assert lm_train_pocket(ds, FLOAT_CFG)[0].weights.tobytes() == lm.weights.tobytes()
        assert not fresh_pick.is_dir() or os.listdir(fresh_pick) == []

    @pytest.mark.parametrize("cause", sorted(FALLBACKS))
    def test_each_fallback_reads_the_same_dataset(self, monkeypatch, tmp_path, cli_csv,
                                                  path_csv, fresh_pick, cause):
        *want, parser = path_csv
        if parser != "scanner" and cause != "other BLAS":
            pytest.skip(f"compiled library unavailable: {_kernels.FALLBACK_REASON}")
        force, reason = FALLBACKS[cause]
        force(monkeypatch, tmp_path)
        assert read_csv(cli_csv) == (*want, "csv")
        assert _kernels.ACTIVE_PATH == "numpy"
        assert _kernels.FALLBACK_REASON.startswith(reason)
        assert not fresh_pick.is_dir() or os.listdir(fresh_pick) == []

    @pytest.mark.parametrize("cause", ["no compiler", "missing symbol"])
    def test_train_falls_back_with_the_same_bytes(self, monkeypatch, tmp_path, capsys,
                                                  cli_csv, fresh_pick, cause):
        def train(out):
            code = main(["train", str(cli_csv), "--out", str(out), "--seed", "2",
                         "--max-iters", "400", "--model", model])
            assert code == 0, capsys.readouterr().err
            return out.read_bytes(), json.loads(Path(f"{out}.manifest.json").read_text())

        for model in ("pairnet", "lm"):
            want, manifest = train(tmp_path / f"{model}-own.txt")
            if manifest["kernel_path"] != "c":
                pytest.skip(f"compiled loops unavailable: {_kernels.FALLBACK_REASON}")
            assert "kernel_fallback" not in manifest
            monkeypatch.setattr(_kernels, "_loaded", None)
            with monkeypatch.context() as mp:
                # An empty cache: a build that is there needs no compiler.
                mp.setenv("XDG_CACHE_HOME", str(tmp_path / f"{model}-empty"))
                FALLBACKS[cause][0](mp, tmp_path)
                got, manifest = train(tmp_path / f"{model}-fallback.txt")
            monkeypatch.setattr(_kernels, "_loaded", None)
            assert got == want
            assert manifest["kernel_path"] == "numpy"
            assert manifest["kernel_fallback"].startswith(FALLBACKS[cause][1])

    def test_one_build_in_the_cache_and_none_in_the_package(self, tmp_path, cli_csv):
        compiled_loops()
        package = Path(pairnet.__file__).parent
        before = sorted(os.listdir(package))
        cache = tmp_path / "cache"
        out = tmp_path / "m.txt"
        env = {**os.environ, "XDG_CACHE_HOME": str(cache),
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(package.parent), os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-c", "from pairnet.cli import entry; entry()", "train",
             str(cli_csv), "--out", str(out), "--jobs", "2", "--max-iters", "400"],
            env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["kernel_path"] == "c" and "kernel_fallback" not in manifest
        built = os.listdir(cache / "pairnet")
        assert len(built) == 1 and built[0].startswith("_loops-") and built[0].endswith(".so")
        assert sorted(os.listdir(package)) == before
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["cache", "m.txt", "m.txt.manifest.json"])


    def test_a_warm_cache_imports_no_build_tools(self):
        # subprocess, and the selectors it imports, cost every command
        # milliseconds; only a build needs them.
        compiled_loops()
        package = Path(pairnet.__file__).parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(package.parent), os.environ.get("PYTHONPATH")) if p)}
        code = ("import sys; from pairnet import _kernels; "
                "print(_kernels.load() is not None, 'subprocess' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]

    @pytest.mark.parametrize("cause", sorted(FALLBACKS))
    def test_each_fallback_saves_the_same_bytes(self, monkeypatch, tmp_path, path_saved,
                                                fresh_pick, cause):
        want, writer = path_saved
        if writer != "compiled" and cause != "other BLAS":
            pytest.skip(f"compiled library unavailable: {_kernels.FALLBACK_REASON}")
        force, reason = FALLBACKS[cause]
        force(monkeypatch, tmp_path)
        out = tmp_path / "saved.csv"
        save_csv(wide_range_dataset(), out)
        assert (out.read_bytes(), dataset.CSV_WRITER) == (want, "python")
        assert _kernels.FALLBACK_REASON.startswith(reason)
        assert not fresh_pick.is_dir() or os.listdir(fresh_pick) == []

    @pytest.mark.parametrize("cause", sorted(FALLBACKS))
    def test_each_fallback_extracts_the_same_dataset(self, monkeypatch, tmp_path,
                                                     signal_files, path_signals,
                                                     fresh_pick, cause):
        *want, parser = path_signals
        if parser != "scanner" and cause != "other BLAS":
            pytest.skip(f"compiled library unavailable: {_kernels.FALLBACK_REASON}")
        force, reason = FALLBACKS[cause]
        force(monkeypatch, tmp_path)
        assert read_signals(signal_files) == (*want, "lines")
        assert _kernels.ACTIVE_PATH == "numpy"
        assert _kernels.FALLBACK_REASON.startswith(reason)
        assert not fresh_pick.is_dir() or os.listdir(fresh_pick) == []

    def test_extract_falls_back_with_the_same_bytes(self, monkeypatch, tmp_path, capsys,
                                                    signal_files, fresh_pick):
        def extract(out):
            code = main(["extract", *map(str, signal_files[0]), "--classes",
                         ",".join(signal_files[1]), "--out", str(out)])
            assert code == 0, capsys.readouterr().err
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            return digest, json.loads(Path(f"{out}.manifest.json").read_text())

        own, manifest = extract(tmp_path / "own.csv")
        if manifest["kernel_path"] != "c":
            pytest.skip(f"compiled library unavailable: {_kernels.FALLBACK_REASON}")
        assert "kernel_fallback" not in manifest
        monkeypatch.setattr(_kernels, "_loaded", None)
        # An empty cache: a build that is there needs no compiler.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        FALLBACKS["no compiler"][0](monkeypatch, tmp_path)
        fallback, manifest = extract(tmp_path / "fallback.csv")
        assert manifest["kernel_path"] == "numpy"
        assert manifest["kernel_fallback"].startswith("no C compiler")
        assert own == fallback == extract_sha256(signal_files, tmp_path)

    def test_extract_builds_once_for_its_workers(self, tmp_path, signal_files):
        compiled_loops()
        cache = tmp_path / "cache"
        out = tmp_path / "feats.csv"
        package = Path(pairnet.__file__).parent
        env = {**os.environ, "XDG_CACHE_HOME": str(cache),
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(package.parent), os.environ.get("PYTHONPATH")) if p)}
        # Two workers, however many CPUs the machine has.
        boot = "import pairnet.cli as cli; cli.default_jobs = lambda: 2; cli.entry()"
        proc = subprocess.run(
            [sys.executable, "-c", boot, "extract", *map(str, signal_files[0]),
             "--classes", ",".join(signal_files[1]), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["kernel_path"] == "c" and "kernel_fallback" not in manifest
        built = os.listdir(cache / "pairnet")
        assert len(built) == 1 and built[0].startswith("_loops-") and built[0].endswith(".so")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == extract_sha256(
            signal_files, tmp_path)


# The sha256 of the feature CSV that extract writes from signal_files, by the
# kernel that numpy's scipy-openblas64 picks for the CPU: a recording's band
# sums are one dgemm, whose rounding differs between kernels. These are all
# the kernels of scipy-openblas64 0.3.31, which numpy 2.4 bundles.
EXTRACT_SHA256 = {
    "SkylakeX": "07912f82a0702a10ed89bc273bdeadb4ab210b1b511c347f6d2f2c7fd3ebf80d",
    "Haswell": "271b011214aadcc756fa23946c24da06e1ad11cd57942c69edeb2bd2c6cacc1e",
    "Sandybridge": "271b011214aadcc756fa23946c24da06e1ad11cd57942c69edeb2bd2c6cacc1e",
    "Nehalem": "fb19f7c2b61470e4ba62c9d67d34b0b1aa1ebc33ea4b7e46c82670ef41ac8baa",
    "Katmai": "e83e3c56ef009887b35040e2ff3fc2a971e5a0d8e98f23110099a821221feb47",
}


def extract_sha256(files, tmp_path):
    """The sha256 that extract must write from files: that of the features of
    the samples as float() reads them, which must be the one pinned for this
    CPU's BLAS kernel."""
    recordings = []
    for path in files[0]:
        head, *lines = path.read_text().splitlines()
        samples = np.array([[float(cell) for cell in line.split()] for line in lines])
        recordings.append((float(head.removeprefix("fs=")), *samples.T))
    out = tmp_path / "reference.csv"
    save_csv(eeg_features.signals_to_dataset(recordings, files[1]), out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    corename = _kernels._numpy_blas(ctypes).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    assert digest == EXTRACT_SHA256[corename().decode()]
    return digest


@pytest.fixture(scope="module")
def signal_files(tmp_path_factory):
    """Three recordings of two 10-second segments, at 50, 64 and 100 Hz, as
    fixed-width sample pairs, and their class labels."""
    base = tmp_path_factory.mktemp("signals")
    rng = np.random.default_rng(21)
    paths = []
    for k, fs in enumerate((50, 64, 100)):
        t = np.arange(20 * fs) / fs
        c3 = 20 * np.sin(2 * np.pi * (6 + 2 * k) * t) + rng.normal(0, 5, t.size)
        c4 = 0.5 * c3 + rng.normal(0, 5, t.size)
        paths.append(base / f"rec{k}.txt")
        paths[-1].write_text(f"fs={fs}\n" + "".join(
            f"{a:+08.3f} {b:+08.3f}\n" for a, b in zip(c3.tolist(), c4.tolist())))
    return paths, ["35", "39", "35"]


def wide_range_dataset():
    """Features of every magnitude a double has, zeros of both signs, and
    class labels that csv.writer quotes."""
    rng = np.random.default_rng(13)
    X = rng.normal(size=(300, 6)) * 10.0 ** rng.integers(-320, 300, size=(300, 6))
    X[:2] = [[-0.0, 0.0, 5e-324, 1e16, 9e-05, -1.7976931348623157e308],
             [1.0, 0.1, 1e22, 1e23, 123456789.0, 2.0**53]]
    records = np.arange(300) // 7 + 1
    return Dataset(X, records % 3 + 1, records,
                   ("a", "b c", 'q"x', "d,e", "é", "f"), ('a,"b', "7", " sp "))


@pytest.fixture(scope="module")
def path_saved(tmp_path_factory):
    """The bytes save_csv writes from wide_range_dataset on this process's
    own pick, and the writer that wrote its rows."""
    out = tmp_path_factory.mktemp("saved") / "saved.csv"
    save_csv(wide_range_dataset(), out)
    return out.read_bytes(), dataset.CSV_WRITER


def read_signals(files):
    """signal_files_to_dataset's arrays and labels for files, and the parser
    that read the last file."""
    ds = eeg_features.signal_files_to_dataset(*files)
    return (ds.X.tobytes(), ds.y.tolist(), ds.records.tolist(), ds.class_labels,
            eeg_features.SIGNAL_PARSER)


@pytest.fixture(scope="module")
def path_signals(signal_files):
    """read_signals of signal_files on this process's own pick."""
    return read_signals(signal_files)


def read_csv(path):
    """load_csv(path)'s arrays and metadata, and the parser that read it."""
    ds = load_csv(path)
    return (ds.X.tobytes(), ds.y.tolist(), ds.records.tolist(), ds.feature_names,
            ds.class_labels, dataset.CSV_PARSER)


@pytest.fixture(scope="module")
def path_csv(cli_csv):
    """read_csv of cli_csv on this process's own pick."""
    return read_csv(cli_csv)


@pytest.fixture(scope="module")
def cli_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    assert main(["gen", "--out", str(path), "--scale", "0.02", "--seed", "5"]) == 0
    return path


def convert_cell(text):
    """The compiled conversion of one CSV cell, or None where it refuses it."""
    cell = text.encode()
    out = ctypes.c_double()
    if compiled_loops().lib.csv_cell(cell, len(cell), ctypes.addressof(out)):
        return None
    return out.value


@st.composite
def decimal_cells(draw):
    """Decimal strings of 1-25 digits, a point anywhere or nowhere, and an
    exponent from -330 to 310 or none."""
    digits = draw(st.text(alphabet="0123456789", min_size=1, max_size=25))
    point = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    if point is not None:
        digits = digits[:point] + "." + digits[point:]
    exponent = ""
    if draw(st.booleans()):
        e = draw(st.integers(-330, 310))
        exponent = draw(st.sampled_from(["e", "E", "e+"] if e >= 0 else ["e", "E"])) + str(e)
    return draw(st.sampled_from(["", "+", "-"])) + digits + exponent


def crafted_cells():
    """Halfway and boundary cases of each conversion tier: mantissas around
    2^53 at the exponents where a tier ends, and 17-digit integers halfway
    between two doubles (which round to the even one) and next to them, also
    with a point moved left by a trailing zero."""
    cells = ["9007199254740993", "9007199254740993.0", "1e22", "1e23", "1e-22", "1e-23",
             "123456789012345678e19", "123456789012345678e-19", "999999999999999999e19",
             "1e-19", "0.1", "0.2", "0.3"]
    for m in range(2**53 - 4, 2**53 + 5):
        cells += [f"{m}e{e}" for e in (-23, -22, -20, -19, -18, -1, 0, 1, 18, 19, 20, 22, 23)]
    for k in (0, 1, 2**40, 2**52 - 1):
        half = 2**54 + 4 * k + 2  # doubles here are 4 apart
        for n in (half - 1, half, half + 1):
            cells += [str(n), f"{n}0e-1", f"{n}e-19", f"{n}e19"]
    # 18-digit decimals next to the midpoint of two doubles in [1, 10): the
    # 128-bit tier's quotient often ends at the midpoint exactly, and only
    # its remainder says which way to round.
    rng = np.random.default_rng(9)
    for x in rng.uniform(1.0, 10.0, size=200).tolist():
        mid = (Fraction(x) + Fraction(math.nextafter(x, 11.0))) / 2
        w = math.ceil(mid * 10**17)
        cells += [f"{w}e-17", f"{w - 1}e-17"]
    return cells


class TestCsvCell:
    """The scanner's conversion of one feature cell (csv_cell in _loops.c)
    is float()'s, bit for bit and in the sign of zero, and it refuses what
    its grammar excludes."""

    @staticmethod
    def check(text):
        got = convert_cell(text)
        assert got is not None, text
        assert struct.pack("<d", got) == struct.pack("<d", float(text)), (text, got)

    @settings(max_examples=1000, deadline=None)
    @given(bits=st.integers(0, 2**64 - 1))
    def test_repr_of_any_finite_double(self, bits):
        x = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
        assume(math.isfinite(x))
        self.check(repr(x))

    @settings(max_examples=1000, deadline=None)
    @given(text=decimal_cells())
    def test_decimal_strings(self, text):
        self.check(text)

    def test_crafted_boundaries(self):
        for text in crafted_cells():
            self.check(text)

    def test_edges(self):
        for text in ["1.", ".5", "+1", "-0.0", "-0", "0e999", "1e999", "-1e999", "5e-324",
                     "2e-324", "3e-324", "1e-400", "2.2250738585072014e-308",
                     "1.7976931348623157e308", "1" * 20, "0." + "0" * 30 + "1",
                     "1" * 400 + "e-400", "0." + "0" * 30, "18446744073709551616",
                     "18446744073709551616e-30", "0" * 30 + "1.5", "0." + "0" * 17 + "123"]:
            self.check(text)

    def test_refuses_other_cells(self):
        for text in ["", ".", "+", "-", "e5", ".e5", "1e", "1e+", "1e-", "--1", "+-1", "1_0",
                     "nan", "inf", "Infinity", " 1", "1 ", "0x10", "1.2.3", "1e5.0", "1,5",
                     "\t1", "\u0661"]:
            assert convert_cell(text) is None, text


def compiled_repr(x):
    """The compiled library's formatting of the float x."""
    out = ctypes.create_string_buffer(32)
    pow5, pow5_inv = _kernels._ryu_tables()
    size = compiled_loops().lib.double_repr(x, out, pow5.ctypes.data, pow5_inv.ctypes.data)
    return out.raw[:size].decode("ascii")


def from_bits(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def crafted_doubles():
    """Where the layout changes, the extreme doubles, integers up to 2^53,
    values whose shortest form has 15, 16 and 17 digits, and doubles whose
    value lies exactly halfway between two shortest candidates or whose
    lower bound is itself a short decimal, so that the digits depend on
    Ryu's record of the trailing zeros it drops."""
    values = [1e16, 9999999999999998.0, 1234567890123456.8, 0.0001, 9e-05, -0.0, 0.0,
              5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
              1.7976931348623157e308, 2251799813685248.5, 1e22, 1e23, 9.5e-05, 1e-05,
              0.001, 1e15, 1e17, 1.5e16, 12345678901234.5, 0.3333333333333333,
              0.30000000000000004, 1e100, 1e-100, 1e300, 1e-300]
    values += [float(k) for k in range(20_000)]
    values += [float(2**k + d) for k in range(54) for d in (-1, 0, 1)]
    values += [10.0**k for k in range(-30, 30)]
    # 17-digit doubles in [2^50, 2^51) that end in .25 or .75: exact ties
    # at the 17th digit, which round to the even digit.
    values += [2.0**50 + k + f for k in range(0, 2**16, 193) for f in (0.25, 0.75)]
    # Doubles near 2^54 to 2^69 with short mantissas: among them are those
    # whose lower bound is a decimal with trailing zeros.
    values += [2.0**k * (1 + j / 2**10) for k in range(50, 70) for j in range(0, 2**10, 4)]
    return values + [-v for v in values]


class TestDoubleRepr:
    """The compiled writer formats a float as repr does, byte for byte: the
    shortest digits that read back as the same double, the nearest of them,
    in fixed notation when -4 < point <= 16 (x = 0.digits * 10^point), else
    as d[.ddd]e±XX with at least two exponent digits."""

    @settings(max_examples=2000, deadline=None)
    @given(bits=st.integers(0, 2**64 - 1))
    def test_any_finite_double(self, bits):
        x = from_bits(bits)
        assume(math.isfinite(x))
        assert compiled_repr(x) == repr(x)

    def test_every_binary_exponent_with_edge_mantissas(self):
        mantissas = (0, 1, 2, 3, 2**51 - 1, 2**51, 2**51 + 1, 2**52 - 2, 2**52 - 1)
        for exponent in range(2047):
            for mantissa in mantissas:
                for sign in (0, 1):
                    x = from_bits(sign << 63 | exponent << 52 | mantissa)
                    assert compiled_repr(x) == repr(x), (exponent, mantissa, sign)

    def test_crafted_values(self):
        for x in crafted_doubles():
            assert compiled_repr(x) == repr(x), repr(x)

    def test_crafted_values_have_the_lengths_they_claim(self):
        # 15, 16 and 17 significant digits
        assert [len(repr(x).replace(".", "").lstrip("0")) for x in (
            12345678901234.5, 0.3333333333333333, 0.30000000000000004)] == [15, 16, 17]

    def test_non_finite(self):
        for x in (math.inf, -math.inf, math.nan, -math.nan):
            assert compiled_repr(x) == repr(x)
