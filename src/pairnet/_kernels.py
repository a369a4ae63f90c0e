"""Hot training loops: numba-compiled kernels with a pure-numpy fallback.

The pocket and linear-machine training loops are inherently sequential
(every weight update depends on the previous one), so they are the only
parts of the package worth JIT-compiling. Both loops exist twice:

* ``*_numba`` -- scalar loops compiled with ``@njit(cache=True, nogil=True)``.
* ``*_numpy`` -- the same algorithm written against numpy primitives.

Without numba a visit costs a Python loop iteration, and most of that cost
is numpy call overhead rather than arithmetic (one 73-long dot product, or
a 16x73 product, per visit). So the numpy variants keep each visit on
Python scalars: the example rows are taken once as a list of row views,
the targets or labels and the visit order as Python lists, and each visit
makes a single BLAS call (``x.dot(pi)`` or ``W.dot(x)``) whose result is
turned into a Python float or int before any comparison. Full-set
accuracy evaluations and weight updates stay whole-array operations.

``pocket_loop`` and ``lm_loop`` point at the active variant. Set the
environment variable ``PAIRNET_DISABLE_NUMBA=1`` before import to force the
numpy path (it is also used automatically when numba is not installed).
Both variants implement the identical decision sequence, so a given seed
produces the same model on either path.
"""

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard dependency by default
    HAVE_NUMBA = False

NUMBA_DISABLED = os.environ.get("PAIRNET_DISABLE_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
)


def _pocket_loop_impl(xb, targets, order, c, max_iters):
    """Pocket algorithm with ratchet over a fixed visit order.

    xb is the (n, m+1) extended example matrix (column 0 all ones), targets
    holds +/-1 per row, and order lists the example index visited at each
    iteration. The pocket starts as the zero vector and is replaced only
    when the current perceptron's run of correct classifications exceeds
    the pocket's best run AND its full-set accuracy is strictly better.
    The accuracy of the current perceptron is cached between errors so the
    expensive full pass runs at most once per error-free run.

    Returns (pocket_weights, pocket_accuracy, iterations_used,
    history_iterations, history_accuracies).
    """
    n, d = xb.shape
    pi = np.zeros(d, dtype=np.float64)
    pocket = np.zeros(d, dtype=np.float64)

    correct0 = 0
    for i in range(n):
        if targets[i] < 0.0:
            correct0 += 1
    pocket_acc = correct0 / n

    hist_cap = n + 2
    hist_it = np.zeros(hist_cap, dtype=np.int64)
    hist_acc = np.zeros(hist_cap, dtype=np.float64)
    hist_acc[0] = pocket_acc
    n_hist = 1

    best_run = 0
    run = 0
    cached_acc = -1.0
    it = 0
    while it < max_iters and pocket_acc < 1.0:
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
                    hist_it[n_hist] = it + 1
                    hist_acc[n_hist] = pocket_acc
                    n_hist += 1
        else:
            t = c * targets[idx]
            for k in range(d):
                pi[k] += t * xb[idx, k]
            run = 0
            cached_acc = -1.0
        it += 1

    return pocket, pocket_acc, it, hist_it[:n_hist].copy(), hist_acc[:n_hist].copy()


def _lm_loop_impl(xb, y0, r, order, c, max_iters):
    """Jointly trained linear machine with a whole-machine pocket ratchet.

    y0 holds 0-based class indices. Each visit classifies one example by
    winner-take-all over the r discriminants (ties to the lowest index);
    a misclassification adds c*x to the true class's weight row and
    subtracts it from the winner's. The pocket stores the best whole-machine
    training accuracy seen, guarded by the same run-length ratchet and
    accuracy cache as the single-unit pocket.

    Returns (pocket_weights (r, m+1), pocket_accuracy, iterations_used,
    history_iterations, history_accuracies).
    """
    n, d = xb.shape
    W = np.zeros((r, d), dtype=np.float64)
    pocket = np.zeros((r, d), dtype=np.float64)

    correct0 = 0
    for i in range(n):
        if y0[i] == 0:
            correct0 += 1
    pocket_acc = correct0 / n

    hist_cap = n + 2
    hist_it = np.zeros(hist_cap, dtype=np.int64)
    hist_acc = np.zeros(hist_cap, dtype=np.float64)
    hist_acc[0] = pocket_acc
    n_hist = 1

    best_run = 0
    run = 0
    cached_acc = -1.0
    it = 0
    while it < max_iters and pocket_acc < 1.0:
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
                    hist_it[n_hist] = it + 1
                    hist_acc[n_hist] = pocket_acc
                    n_hist += 1
        else:
            for k in range(d):
                upd = c * xb[idx, k]
                W[true_j, k] += upd
                W[best_j, k] -= upd
            run = 0
            cached_acc = -1.0
        it += 1

    return pocket, pocket_acc, it, hist_it[:n_hist].copy(), hist_acc[:n_hist].copy()


def pocket_loop_numpy(xb, targets, order, c, max_iters):
    """Numpy variant of the pocket loop; same decision sequence as the kernel."""
    n, d = xb.shape
    pi = np.zeros(d)
    pocket = np.zeros(d)
    pos = targets > 0.0
    pocket_acc = float(np.count_nonzero(targets < 0.0)) / n

    hist_it = [0]
    hist_acc = [pocket_acc]

    rows = list(xb)
    wanted = targets.tolist()
    visits = order[:max_iters].tolist()
    best_run = 0
    run = 0
    cached_acc = -1.0
    it = 0
    for it, idx in enumerate(visits, 1):
        x = rows[idx]
        t = wanted[idx]
        # The conditional turns the numpy bool into a Python float before
        # the comparison: comparing the numpy bool itself with a Python
        # value would cost about 1 us a visit.
        if (1.0 if x.dot(pi) > 0.0 else -1.0) == t:
            run += 1
            if run > best_run:
                if cached_acc < 0.0:
                    cached_acc = np.count_nonzero((xb @ pi > 0.0) == pos) / n
                if cached_acc > pocket_acc:
                    pocket = pi.copy()
                    pocket_acc = cached_acc
                    best_run = run
                    hist_it.append(it)
                    hist_acc.append(pocket_acc)
                    if pocket_acc >= 1.0:
                        break
        else:
            pi = pi + (c * t) * x
            run = 0
            cached_acc = -1.0

    return (
        pocket,
        pocket_acc,
        it,
        np.asarray(hist_it, dtype=np.int64),
        np.asarray(hist_acc, dtype=np.float64),
    )


def lm_loop_numpy(xb, y0, r, order, c, max_iters):
    """Numpy variant of the linear-machine loop; same decision sequence as the kernel."""
    n, d = xb.shape
    W = np.zeros((r, d))
    pocket = np.zeros((r, d))
    pocket_acc = float(np.count_nonzero(y0 == 0)) / n

    hist_it = [0]
    hist_acc = [pocket_acc]

    rows = list(xb)
    labels = y0.tolist()
    # W is only ever updated in place, through its row views, so the bound
    # method and the views stay valid; a row view's += skips the copy back
    # that W[j] += upd makes.
    scores = W.dot
    w_rows = list(W)
    visits = order[:max_iters].tolist()
    best_run = 0
    run = 0
    cached_acc = -1.0
    it = 0
    for it, idx in enumerate(visits, 1):
        x = rows[idx]
        best_j = int(scores(x).argmax())
        true_j = labels[idx]
        if best_j == true_j:
            run += 1
            if run > best_run:
                if cached_acc < 0.0:
                    preds = np.argmax(xb @ W.T, axis=1)
                    cached_acc = np.count_nonzero(preds == y0) / n
                if cached_acc > pocket_acc:
                    pocket = W.copy()
                    pocket_acc = cached_acc
                    best_run = run
                    hist_it.append(it)
                    hist_acc.append(pocket_acc)
                    if pocket_acc >= 1.0:
                        break
        else:
            upd = c * x
            w_rows[true_j] += upd
            w_rows[best_j] -= upd
            run = 0
            cached_acc = -1.0

    return (
        pocket,
        pocket_acc,
        it,
        np.asarray(hist_it, dtype=np.int64),
        np.asarray(hist_acc, dtype=np.float64),
    )


if HAVE_NUMBA:
    pocket_loop_numba = njit(cache=True, nogil=True)(_pocket_loop_impl)
    lm_loop_numba = njit(cache=True, nogil=True)(_lm_loop_impl)
else:
    pocket_loop_numba = None
    lm_loop_numba = None

if HAVE_NUMBA and not NUMBA_DISABLED:
    pocket_loop = pocket_loop_numba
    lm_loop = lm_loop_numba
    ACTIVE_PATH = "numba"
else:
    pocket_loop = pocket_loop_numpy
    lm_loop = lm_loop_numpy
    ACTIVE_PATH = "numpy"


def build_visit_order(n: int, max_iters: int, rng: np.random.Generator, shuffle: bool) -> np.ndarray:
    """Precompute the example index visited at each iteration.

    With shuffle on, the order is a concatenation of fresh permutations of
    0..n-1 (one per epoch); otherwise it cycles through the examples in
    storage order. Precomputing keeps all randomness outside the kernels,
    so that a seed fully determines the training trajectory on either path.
    """
    if not shuffle:
        return (np.arange(max_iters, dtype=np.int64) % n).astype(np.int64)
    epochs = -(-max_iters // n)
    parts = [rng.permutation(n) for _ in range(epochs)]
    return np.concatenate(parts)[:max_iters].astype(np.int64)


def warm_kernels() -> None:
    """Trigger JIT compilation on a trivial problem (no-op on the numpy path)."""
    xb = np.array([[1.0, 0.5], [1.0, -0.5]])
    targets = np.array([1.0, -1.0])
    order = np.zeros(2, dtype=np.int64)
    pocket_loop(xb, targets, order, 1.0, 2)
    lm_loop(xb, np.array([0, 1], dtype=np.int64), 2, order, 1.0, 2)
