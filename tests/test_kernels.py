"""The numba kernels and the numpy fallbacks must walk the same trajectory.

Probe problems use small-integer features so every dot product is exact in
float64 regardless of summation order; any divergence between the paths is
then a real decision-sequence difference, not rounding noise.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from pairnet import _kernels
from pairnet._kernels import (
    build_visit_order,
    lm_loop_numpy,
    pocket_loop_numpy,
)

needs_numba = pytest.mark.skipif(
    not _kernels.HAVE_NUMBA, reason="numba not installed"
)


def integer_problem(seed, n=60, m=3):
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, m)).astype(np.float64)
    xb = np.ascontiguousarray(np.hstack([np.ones((n, 1)), X]))
    targets = rng.choice([-1.0, 1.0], size=n)
    targets[0], targets[1] = 1.0, -1.0
    order = build_visit_order(n, 5000, np.random.default_rng(seed + 1), True)
    return xb, targets, order


def integer_lm_problem(seed, n=60, m=3, r=4):
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, m)).astype(np.float64)
    xb = np.ascontiguousarray(np.hstack([np.ones((n, 1)), X]))
    y0 = rng.integers(0, r, size=n).astype(np.int64)
    y0[:r] = np.arange(r)
    order = build_visit_order(n, 5000, np.random.default_rng(seed + 1), True)
    return xb, y0, order


class TestVisitOrder:
    def test_cyclic_without_shuffle(self):
        order = build_visit_order(3, 8, np.random.default_rng(0), shuffle=False)
        np.testing.assert_array_equal(order, [0, 1, 2, 0, 1, 2, 0, 1])

    def test_shuffled_epochs_are_permutations(self):
        order = build_visit_order(5, 12, np.random.default_rng(0), shuffle=True)
        assert sorted(order[:5]) == [0, 1, 2, 3, 4]
        assert sorted(order[5:10]) == [0, 1, 2, 3, 4]
        assert len(order) == 12

    def test_deterministic(self):
        a = build_visit_order(7, 40, np.random.default_rng(5), True)
        b = build_visit_order(7, 40, np.random.default_rng(5), True)
        np.testing.assert_array_equal(a, b)


@needs_numba
class TestPathEquivalence:
    def test_pocket_paths_identical(self):
        for seed in range(5):
            xb, targets, order = integer_problem(seed)
            res_nb = _kernels.pocket_loop_numba(xb, targets, order, 1.0, 5000)
            res_np = pocket_loop_numpy(xb, targets, order, 1.0, 5000)
            np.testing.assert_array_equal(res_nb[0], res_np[0])  # pocket weights
            assert res_nb[1] == res_np[1]  # accuracy
            assert res_nb[2] == res_np[2]  # iterations used
            np.testing.assert_array_equal(res_nb[3], res_np[3])  # history iters
            np.testing.assert_array_equal(res_nb[4], res_np[4])  # history accs

    def test_lm_paths_identical(self):
        for seed in range(5):
            xb, y0, order = integer_lm_problem(seed)
            res_nb = _kernels.lm_loop_numba(xb, y0, 4, order, 1.0, 5000)
            res_np = lm_loop_numpy(xb, y0, 4, order, 1.0, 5000)
            np.testing.assert_array_equal(res_nb[0], res_np[0])
            assert res_nb[1] == res_np[1]
            assert res_nb[2] == res_np[2]
            np.testing.assert_array_equal(res_nb[3], res_np[3])

    def test_fractional_correction_paths_identical(self):
        # c = 0.5 keeps all arithmetic exact on the integer grid too
        xb, targets, order = integer_problem(11)
        res_nb = _kernels.pocket_loop_numba(xb, targets, order, 0.5, 5000)
        res_np = pocket_loop_numpy(xb, targets, order, 0.5, 5000)
        np.testing.assert_array_equal(res_nb[0], res_np[0])


def assert_same_result(a, b):
    """All five returned values agree exactly: weights, accuracy, visits
    used, history iterations and history accuracies."""
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1] == b[1]
    assert a[2] == b[2]
    np.testing.assert_array_equal(a[3], b[3])
    np.testing.assert_array_equal(a[4], b[4])


def separable_problem(seed, n=40, m=2):
    """Integer points labelled by the sign of a fixed integer hyperplane,
    with no point on the plane, so the pocket reaches accuracy 1.0."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, m)).astype(np.float64)
    act = 1.0 + X @ np.arange(1.0, m + 1.0) * 2.0
    targets = np.where(act > 0.0, 1.0, -1.0)
    xb = np.ascontiguousarray(np.hstack([np.ones((n, 1)), X]))
    order = build_visit_order(n, 5000, np.random.default_rng(seed + 1), True)
    return xb, targets, order


class TestReferenceEquivalence:
    """The kernel source, run un-jitted as plain Python, is the reference
    that the numpy variants must match on every returned value. Runs with
    or without numba."""

    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_pocket_matches_reference(self, seed, c):
        xb, targets, order = integer_problem(seed)
        assert_same_result(
            _kernels._pocket_loop_impl(xb, targets, order, c, 5000),
            pocket_loop_numpy(xb, targets, order, c, 5000),
        )

    @pytest.mark.parametrize("c", [1.0, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_lm_matches_reference(self, seed, c):
        xb, y0, order = integer_lm_problem(seed)
        assert_same_result(
            _kernels._lm_loop_impl(xb, y0, 4, order, c, 5000),
            lm_loop_numpy(xb, y0, 4, order, c, 5000),
        )

    @pytest.mark.parametrize("max_iters", [1, 7, 37])
    def test_budget_shorter_than_an_epoch(self, max_iters):
        xb, targets, order = integer_problem(3)
        res = pocket_loop_numpy(xb, targets, order, 1.0, max_iters)
        assert res[2] == max_iters < xb.shape[0]
        assert_same_result(
            _kernels._pocket_loop_impl(xb, targets, order, 1.0, max_iters), res
        )
        xb, y0, order = integer_lm_problem(3)
        res = lm_loop_numpy(xb, y0, 4, order, 1.0, max_iters)
        assert res[2] == max_iters
        assert_same_result(_kernels._lm_loop_impl(xb, y0, 4, order, 1.0, max_iters), res)

    @pytest.mark.parametrize("seed", range(3))
    def test_separable_stops_at_full_accuracy(self, seed):
        xb, targets, order = separable_problem(seed)
        res = pocket_loop_numpy(xb, targets, order, 1.0, 5000)
        assert res[1] == 1.0 and res[2] < 5000
        assert res[3][-1] == res[2]  # the last visit made the final swap
        assert_same_result(_kernels._pocket_loop_impl(xb, targets, order, 1.0, 5000), res)

    def test_separable_lm_stops_at_full_accuracy(self):
        xb = np.array([[1.0, -3.0], [1.0, -1.0], [1.0, 2.0], [1.0, 4.0]])
        y0 = np.array([0, 0, 1, 1], dtype=np.int64)
        order = build_visit_order(4, 1000, np.random.default_rng(0), True)
        res = lm_loop_numpy(xb, y0, 2, order, 1.0, 1000)
        assert res[1] == 1.0 and res[2] < 1000
        assert_same_result(_kernels._lm_loop_impl(xb, y0, 2, order, 1.0, 1000), res)

    @pytest.mark.parametrize("max_iters", range(1, 9))
    def test_lm_ties_go_to_the_lowest_class(self, max_iters):
        # Identical rows make every discriminant tie at W = 0 and again
        # whenever the classes' corrections balance, both per visit and in
        # the whole-set evaluation.
        xb = np.array([[1.0, 2.0]] * 3)
        y0 = np.array([1, 0, 2], dtype=np.int64)
        order = np.array([1, 0, 1, 2, 1, 0, 2, 1], dtype=np.int64)
        assert_same_result(
            _kernels._lm_loop_impl(xb, y0, 3, order, 1.0, max_iters),
            lm_loop_numpy(xb, y0, 3, order, 1.0, max_iters),
        )


class TestPathSelection:
    def test_active_path_is_consistent(self):
        assert _kernels.ACTIVE_PATH in ("numba", "numpy")
        if _kernels.NUMBA_DISABLED or not _kernels.HAVE_NUMBA:
            assert _kernels.pocket_loop is pocket_loop_numpy
        else:
            assert _kernels.pocket_loop is _kernels.pocket_loop_numba

    def test_env_flag_selects_numpy_path(self):
        code = (
            "from pairnet import _kernels\n"
            "assert _kernels.NUMBA_DISABLED\n"
            "assert _kernels.ACTIVE_PATH == 'numpy', _kernels.ACTIVE_PATH\n"
            "assert _kernels.pocket_loop is _kernels.pocket_loop_numpy\n"
        )
        # The environment stays minimal so that the flag alone selects the
        # path, but it must still find the pairnet this process imported,
        # whether that is a source tree or an installed copy.
        package_root = os.path.dirname(os.path.dirname(_kernels.__file__))
        pythonpath = os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": pythonpath,
                "PAIRNET_DISABLE_NUMBA": "1",
            },
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_warm_kernels_smoke(self):
        _kernels.warm_kernels()
