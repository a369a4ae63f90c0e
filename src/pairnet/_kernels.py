"""Hot training loops, one per model, and the seeded order they visit.

The pocket and linear-machine training loops are inherently sequential
(every weight update depends on the previous one). A visit costs a Python
loop iteration, and most of that cost is numpy call overhead rather than
arithmetic (one 73-long dot product, or a 16x73 product, per visit). So
the loops keep each visit on Python scalars: the example rows are taken
once as a list of row views, the targets or labels as Python lists, the
visit order yields Python ints, and each visit makes a single BLAS call
(``x.dot(pi)`` or ``W.dot(x)``) whose result is turned into a Python float
or int before any comparison. Full-set accuracy evaluations and weight
updates stay whole-array operations.

Each loop visits every index ``order`` yields (its length is the budget)
until the pocket reaches accuracy 1.0, and returns the four fields of a
``tlu.PocketResult`` in field order: the pocket weights, its accuracy (a
Python float), the visits used (a Python int) and the history, a tuple of
(visit, accuracy) pairs.

The decision sequence is that of the per-visit ``ddot`` signs (and of the
whole-set products in the accuracy evaluations), so it depends on how
BLAS rounds each dot product. ``tests/test_kernels.py`` checks both loops
against a scalar reference loop that sums left to right; the two are
proven equal only where every dot product is exact, as on the
integer-grid problems there.
"""

import itertools

import numpy as np

# perfbench stamps each run with the loop implementation that ran.
ACTIVE_PATH = "numpy"


def pocket_loop(xb, targets, order, c):
    """Pocket algorithm with ratchet over a visit order.

    xb is the (n, m+1) extended example matrix (column 0 all ones), targets
    holds +/-1 per row, and order yields the example index visited at each
    iteration; its length is the visit budget. The pocket starts as the
    zero vector and is replaced only when the current perceptron's run of
    correct classifications exceeds the pocket's best run AND its full-set
    accuracy is strictly better.
    The accuracy of the current perceptron is cached between errors so the
    full pass runs at most once per error-free run, and training stops
    once the pocket reaches accuracy 1.0.

    Returns (pocket_weights, pocket_accuracy, iterations_used, history).
    """
    n, d = xb.shape
    pi = np.zeros(d)
    pocket = np.zeros(d)
    pos = targets > 0.0
    pocket_acc = int(np.count_nonzero(targets < 0.0)) / n
    history = [(0, pocket_acc)]

    rows = list(xb)
    wanted = targets.tolist()
    best_run = 0
    run = 0
    cached_acc = -1.0
    it = 0
    for it, idx in enumerate(order, 1):
        x = rows[idx]
        t = wanted[idx]
        # The conditional turns the numpy bool into a Python float before
        # the comparison: comparing the numpy bool itself with a Python
        # value would cost about 1 us a visit.
        if (1.0 if x.dot(pi) > 0.0 else -1.0) == t:
            run += 1
            if run > best_run:
                if cached_acc < 0.0:
                    cached_acc = int(np.count_nonzero((xb @ pi > 0.0) == pos)) / n
                if cached_acc > pocket_acc:
                    pocket = pi.copy()
                    pocket_acc = cached_acc
                    best_run = run
                    history.append((it, pocket_acc))
                    if pocket_acc >= 1.0:
                        break
        else:
            pi = pi + (c * t) * x
            run = 0
            cached_acc = -1.0

    return pocket, pocket_acc, it, tuple(history)


def lm_loop(xb, y0, r, order, c):
    """Jointly trained linear machine with a whole-machine pocket ratchet.

    y0 holds 0-based class indices, and order yields the visited example
    indices (its length is the visit budget). Each visit classifies one
    example by winner-take-all over the r discriminants (ties to the lowest
    index); a misclassification adds c*x to the true class's weight row and
    subtracts it from the winner's. The pocket stores the best whole-machine
    training accuracy seen, guarded by the same run-length ratchet and
    accuracy cache as the single-unit pocket.

    Returns (pocket_weights (r, m+1), pocket_accuracy, iterations_used,
    history).
    """
    n, d = xb.shape
    W = np.zeros((r, d))
    pocket = np.zeros((r, d))
    pocket_acc = int(np.count_nonzero(y0 == 0)) / n
    history = [(0, pocket_acc)]

    rows = list(xb)
    labels = y0.tolist()
    # W is only ever updated in place, through its row views, so the bound
    # method and the views stay valid; a row view's += skips the copy back
    # that W[j] += upd makes.
    scores = W.dot
    w_rows = list(W)
    best_run = 0
    run = 0
    cached_acc = -1.0
    it = 0
    for it, idx in enumerate(order, 1):
        x = rows[idx]
        best_j = int(scores(x).argmax())
        true_j = labels[idx]
        if best_j == true_j:
            run += 1
            if run > best_run:
                if cached_acc < 0.0:
                    preds = np.argmax(xb @ W.T, axis=1)
                    cached_acc = int(np.count_nonzero(preds == y0)) / n
                if cached_acc > pocket_acc:
                    pocket = W.copy()
                    pocket_acc = cached_acc
                    best_run = run
                    history.append((it, pocket_acc))
                    if pocket_acc >= 1.0:
                        break
        else:
            upd = c * x
            w_rows[true_j] += upd
            w_rows[best_j] -= upd
            run = 0
            cached_acc = -1.0

    return pocket, pocket_acc, it, tuple(history)


def visit_order(n: int, max_iters: int, seed: int):
    """The example index visited at each of max_iters iterations: fresh
    permutations of 0..n-1, one per epoch, from the generator seeded with
    seed. Each is drawn only when training reaches its epoch, so memory
    does not grow with max_iters; a bad seed fails here, before any visit.
    """
    rng = np.random.default_rng(seed)
    epochs = (rng.permutation(n).tolist() for _ in itertools.repeat(None))
    return itertools.islice(itertools.chain.from_iterable(epochs), max_iters)
