"""Hot training loops, one per model, the seeded order they visit, and the
choice between their two implementations; and the compiled scanners of a
CSV body and of a signal file, which share their library.

The pocket and linear-machine loops are inherently sequential (every weight
update depends on the previous one), and a visit is cheap: one 73-long dot
product, or a 16x73 product, at the paper's size. Each loop has two
implementations that make the same decisions bit for bit:

- ``pocket_loop_c`` and ``lm_loop_c`` run the visits in C (``_loops.c``),
  calling numpy's own BLAS with the arguments numpy passes for each
  expression of the numpy loops. Python owns the state, in numpy arrays, and
  hands the loop one stretch of the visit order (an epoch) at a time; the
  loop returns at the end of it, and at each pocket swap so that the history
  can be appended.
- ``pocket_loop_numpy`` and ``lm_loop_numpy`` are the fallback and the
  reference. They keep each visit on Python scalars: the example rows are
  taken once as a list of row views, the targets or labels as Python lists,
  the visit order yields Python ints, and each visit makes a single BLAS call
  (``x.dot(pi)`` or ``W.dot(x)``) whose result is turned into a Python float
  or int before any comparison. Full-set accuracy evaluations and weight
  updates stay whole-array operations.

``load()``, which the first loop, scanner or writer calls, picks the path
once per process and names it in ``ACTIVE_PATH``. It builds ``_loops.c``
at first use with the system C compiler and ``-ffp-contract=off`` (no FMA:
``pi + (c*t)*x`` must round twice, as numpy does) into
``$XDG_CACHE_HOME/pairnet`` (default ``~/.cache/pairnet``), under a name keyed
by the hash of the source and the flags, renamed into place when complete.
The BLAS entry points come from the scipy-openblas64 library that numpy's
wheel bundles, and only if numpy has loaded it. No compiler, a failed build,
an unwritable cache, another BLAS or a missing symbol selects the numpy
loops, with ``FALLBACK_REASON`` saying why; it never fails a command. Where
numpy itself would call other BLAS routines (one row, one feature column or
one class), a loop runs its numpy version.

The same library holds two scanners: ``csv_scan``, which
``dataset.load_csv`` tries before ``np.loadtxt`` through ``scan_csv``, and
``signal_scan``, which ``eeg_features.read_signal_file`` tries before its
text read and ``np.loadtxt`` through ``scan_signal``. Both read a file in
64 KiB blocks through one line reader and convert each cell with
``csv_cell``. Where ``load()`` falls back, so do both readers, to
``np.loadtxt``. It also holds the CSV writer, ``csv_write``, which
``dataset.save_csv`` tries before its Python rows through ``write_csv``: it
formats each float as ``repr`` does, with Ryu's shortest-digit algorithm,
and writes 64 KiB blocks to the file descriptor.

Each loop visits every index its visit order holds (its length is the
budget) until the pocket reaches accuracy 1.0, and returns the four fields
of a ``tlu.PocketResult`` in field order: the pocket weights, its accuracy (a
Python float), the visits used (a Python int) and the history, a tuple of
(visit, accuracy) pairs.

The decision sequence is that of the per-visit dot-product signs (and of
the whole-set products in the accuracy evaluations), so it depends on how
BLAS rounds each dot product. ``tests/test_kernels.py`` checks the two
implementations against each other on random float data, and both against
scalar reference loops that sum left to right; the latter are proven equal
only where every dot product is exact, as on the integer-grid problems there.
"""

import functools
import itertools
import os
import types
from pathlib import Path

import numpy as np

# The loop implementation this process runs: "numpy" until load() picks,
# then "c" or "numpy". The manifests of the commands that load it record it.
ACTIVE_PATH = "numpy"
# Why the compiled loops are not in use, once load() has fallen back.
FALLBACK_REASON = None

_SOURCE = Path(__file__).with_name("_loops.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILERS = ("cc", "gcc", "clang")
_BLAS_LIBRARY = "libscipy_openblas64_*.so"
_BLAS_SYMBOLS = ("scipy_cblas_ddot64_", "scipy_cblas_dgemv64_", "scipy_cblas_dgemm64_")

# None until load() picks; then the compiled loops, or False for numpy's.
_loaded = None


class _Unavailable(Exception):
    """The compiled loops cannot be used; the message says why, in one line."""


def load():
    """Pick this process's loop path, once, and return the compiled loops, or
    None where the numpy loops run. Call it before forking workers, so that
    they inherit the choice and the loaded library."""
    global _loaded, ACTIVE_PATH, FALLBACK_REASON
    if _loaded is None:
        try:
            _loaded, ACTIVE_PATH, FALLBACK_REASON = _load_compiled(), "c", None
        except (_Unavailable, OSError) as exc:
            _loaded, ACTIVE_PATH, FALLBACK_REASON = False, "numpy", str(exc)
    return _loaded or None


def pocket_loop(xb, targets, stretches, c):
    """The pocket loop over a visit order given as stretches, int64 arrays of
    example indices (``epochs`` yields them), on this process's path."""
    loops = load()
    if loops is None or not _blas_shaped(xb, 2):
        return pocket_loop_numpy(xb, targets, _indices(stretches), c)
    return pocket_loop_c(loops, xb, targets, stretches, c)


def lm_loop(xb, y0, r, stretches, c):
    """The linear-machine loop over a visit order given as stretches, on this
    process's path."""
    loops = load()
    if loops is None or not _blas_shaped(xb, r):
        return lm_loop_numpy(xb, y0, r, _indices(stretches), c)
    return lm_loop_c(loops, xb, y0, r, stretches, c)


def _blas_shaped(xb, r):
    # The shapes for which numpy computes x.dot(pi), xb @ pi, W.dot(x) and
    # xb @ W.T with ddot, dgemv and dgemm on these very arguments.
    n, d = xb.shape
    return (min(n, d, r) >= 2 and xb.dtype == np.float64
            and xb.flags.c_contiguous)


def _indices(stretches):
    return itertools.chain.from_iterable(s.tolist() for s in stretches)


def scan_csv(fd, row, offset, size, limit):
    """The body of the CSV file open on fd as an array of the structured
    dtype row, read by the compiled scanner; or None where the compiled
    library is not loaded or the scanner leaves the file to np.loadtxt.

    Cell k of a line fills the row at byte offset[k]: with a float, or,
    where size[k] > 0, with its text padded with NUL bytes to size[k]. A
    line longer than limit bytes, and any line not made of exactly
    len(offset) plain cells, leaves the file to np.loadtxt (see _loops.c).
    The file offset of fd does not move."""
    loops = load()
    if loops is None:
        return None
    offset = np.ascontiguousarray(offset, dtype=np.int64)
    size = np.ascontiguousarray(size, dtype=np.int64)
    if not (offset.shape == size.shape == (offset.size,) and np.all(offset >= 0)
            and np.all(offset + np.where(size > 0, size, 8) <= row.itemsize)):
        raise ValueError("every cell must lie inside the row")
    capacity = loops.lib.csv_newlines(fd)
    if capacity < 0:
        return None
    try:
        # Pages no row is written to stay unused: blank lines need none.
        table = np.empty(capacity, dtype=row)
    except MemoryError:
        return None
    rows = loops.lib.csv_scan(fd, offset.size, offset.ctypes.data, size.ctypes.data,
                              limit, table.ctypes.data, row.itemsize, capacity)
    return None if rows < 0 else table[:rows]


def scan_signal(fd):
    """The two channels of the signal file open on fd, float64 arrays read by
    the compiled scanner past the header line; or None where the compiled
    library is not loaded or the scanner leaves the file to np.loadtxt and
    the line parser (see _loops.c). The file offset of fd does not move."""
    loops = load()
    if loops is None:
        return None
    capacity = loops.lib.csv_newlines(fd)
    if capacity < 0:
        return None
    try:
        first, second = np.empty(capacity), np.empty(capacity)
    except MemoryError:
        return None
    rows = loops.lib.signal_scan(fd, first.ctypes.data, second.ctypes.data, capacity)
    return None if rows < 0 else (first[:rows], second[:rows])


def write_csv(fd, X, y, records, labels):
    """Write the rows of a dataset to the file open on fd with the compiled
    writer, and return True; or return False, having written nothing, where
    the compiled library is not loaded.

    Row i is X[i] as repr writes each float, then labels[y[i] - 1] (a str,
    already quoted as csv.writer quotes it), then records[i], separated by
    ',' and ended by "\r\n": the bytes csv.writer writes for the row. A
    failed write raises OSError, after the rows before it are written."""
    loops = load()
    if loops is None:
        return False
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    records = np.ascontiguousarray(records, dtype=np.int64)
    if not (X.ndim == 2 and y.shape == records.shape == X.shape[:1]):
        raise ValueError(f"one class and one record per row of X; got {X.shape} rows, "
                         f"{y.shape} classes and {records.shape} records")
    n, m = X.shape
    if n and not (y.min() >= 1 and y.max() <= len(labels)):
        raise IndexError(f"class id out of range 1..{len(labels)}")
    cells = [label.encode("utf-8") for label in labels]
    ends = np.cumsum([0] + [len(cell) for cell in cells], dtype=np.int64)
    pow5, pow5_inv = _ryu_tables()
    if loops.lib.csv_write(fd, X.ctypes.data, n, m, y.ctypes.data,
                           records.ctypes.data, b"".join(cells), ends.ctypes.data,
                           pow5.ctypes.data, pow5_inv.ctypes.data) < 0:
        err = loops.get_errno()
        raise OSError(err, os.strerror(err))
    return True


@functools.cache
def _ryu_tables():
    """The tables of Ryu's d2s (see _loops.c), as {low, high} uint64 pairs:
    5^i cut or padded to 125 bits for i < 326, and 2^(bit_length(5^i) + 124)
    // 5^i + 1 for i < 342. Made on the first save_csv, so that no command
    that writes no CSV pays for them."""
    def pairs(values):
        return np.array([(v & (2**64 - 1), v >> 64) for v in values], dtype=np.uint64)

    powers = [5**i for i in range(342)]
    return (pairs((p << 125) >> p.bit_length() for p in powers[:326]),
            pairs((1 << (p.bit_length() + 124)) // p + 1 for p in powers))


def pocket_loop_c(loops, xb, targets, stretches, c):
    """pocket_loop_numpy in C, on the loops load() returned. xb must be
    C-ordered float64 with at least two rows and columns (else ValueError)."""
    n, d = xb.shape
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    _check_c_inputs(xb, targets, 2)
    pi, pocket, act = np.zeros(d), np.zeros(d), np.empty(n)
    state = loops.State(0, 0, int(np.count_nonzero(targets < 0.0)) / n, -1.0)
    visits = functools.partial(
        loops.lib.pocket_visits, xb.ctypes.data, targets.ctypes.data, n, d, c,
        pi.ctypes.data, pocket.ctypes.data, act.ctypes.data, loops.byref(state))
    used, history = _visit_stretches(visits, stretches, n, state)
    return pocket, state.pocket_acc, used, history


def lm_loop_c(loops, xb, y0, r, stretches, c):
    """lm_loop_numpy in C, on the loops load() returned. xb must be C-ordered
    float64 with at least two rows and columns, and r at least 2 (else
    ValueError)."""
    n, d = xb.shape
    labels = np.ascontiguousarray(y0, dtype=np.int64)
    _check_c_inputs(xb, labels, r)
    if not (labels.min() >= 0 and labels.max() < r):
        raise IndexError(f"class index out of range 0..{r - 1}")
    W, pocket, scores = np.zeros((r, d)), np.zeros((r, d)), np.empty(n * r)
    state = loops.State(0, 0, int(np.count_nonzero(labels == 0)) / n, -1.0)
    visits = functools.partial(
        loops.lib.lm_visits, xb.ctypes.data, labels.ctypes.data, n, d, r, c,
        W.ctypes.data, pocket.ctypes.data, scores.ctypes.data, loops.byref(state))
    used, history = _visit_stretches(visits, stretches, n, state)
    return pocket, state.pocket_acc, used, history


def _check_c_inputs(xb, per_row, r):
    # The compiled loops read these arrays by raw address.
    if not (_blas_shaped(xb, r) and per_row.shape == xb.shape[:1]):
        raise ValueError(f"compiled loops need C-ordered float64 rows, at least 2x2, "
                         f"one target per row and r >= 2; got {xb.shape} "
                         f"{xb.dtype} rows, {per_row.shape} targets, r={r}")


def _visit_stretches(visits, stretches, n, state):
    """Run a compiled loop over each stretch in turn. visits(address, length)
    visits from the start of a stretch until it ends or the pocket swaps, and
    returns the visits it made. Returns the visits used and the history, as
    the numpy loops count them."""
    history = [(0, state.pocket_acc)]
    used = 0
    for order in stretches:
        order = np.ascontiguousarray(order, dtype=np.int64)
        if order.size and not (order.min() >= 0 and order.max() < n):
            raise IndexError(f"visit index out of range 0..{n - 1}")
        address, left = order.ctypes.data, order.size
        while left:
            done = visits(address, left)
            used += done
            left -= done
            address += done * order.itemsize
            if state.pocket_acc != history[-1][1]:  # a swap; each one improves
                history.append((used, state.pocket_acc))
                if state.pocket_acc >= 1.0:
                    return used, tuple(history)
    return used, tuple(history)


def pocket_loop_numpy(xb, targets, order, c):
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


def lm_loop_numpy(xb, y0, r, order, c):
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


def epochs(n: int, max_iters: int, seed: int):
    """The visit order of max_iters iterations as one int64 array per epoch:
    fresh permutations of 0..n-1 from the generator seeded with seed, the
    last one cut to the budget. Each is drawn only when training reaches its
    epoch, so memory does not grow with max_iters; a bad seed fails here,
    before any visit."""
    rng = np.random.default_rng(seed)

    def draw(left):
        while left > 0:
            yield rng.permutation(n)[:left]
            left -= n

    return draw(max_iters)


def visit_order(n: int, max_iters: int, seed: int):
    """The example index visited at each of max_iters iterations, as Python
    ints: the epochs of ``epochs(n, max_iters, seed)`` one after another."""
    return _indices(epochs(n, max_iters, seed))


def _load_compiled():
    import ctypes

    blas = _numpy_blas(ctypes)
    entries = []
    for name in _BLAS_SYMBOLS:
        try:
            entries.append(ctypes.cast(getattr(blas, name), ctypes.c_void_p))
        except AttributeError:
            raise _Unavailable(f"symbol {name} missing") from None
    path = _build()
    try:
        # use_errno: csv_write reports a failed write through errno.
        lib = ctypes.CDLL(str(path), use_errno=True)
    except OSError as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from None

    class State(ctypes.Structure):
        # loop_state in _loops.c
        _fields_ = [("run", ctypes.c_int64), ("best_run", ctypes.c_int64),
                    ("pocket_acc", ctypes.c_double), ("cached_acc", ctypes.c_double)]

    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.set_blas.argtypes = [ptr, ptr, ptr]
    lib.set_blas.restype = None
    lib.set_blas(*entries)
    lib.pocket_visits.argtypes = [ptr, ptr, i64, i64, f64, ptr, ptr, ptr,
                                  ctypes.POINTER(State), ptr, i64]
    lib.pocket_visits.restype = i64
    lib.lm_visits.argtypes = [ptr, ptr, i64, i64, i64, f64, ptr, ptr, ptr,
                              ctypes.POINTER(State), ptr, i64]
    lib.lm_visits.restype = i64
    lib.csv_cell.argtypes = [ctypes.c_char_p, i64, ptr]
    lib.csv_cell.restype = ctypes.c_int
    lib.csv_newlines.argtypes = [ctypes.c_int]
    lib.csv_newlines.restype = i64
    lib.csv_scan.argtypes = [ctypes.c_int, i64, ptr, ptr, i64, ptr, i64, i64]
    lib.csv_scan.restype = i64
    lib.signal_scan.argtypes = [ctypes.c_int, ptr, ptr, i64]
    lib.signal_scan.restype = i64
    lib.csv_write.argtypes = [ctypes.c_int, ptr, i64, i64, ptr, ptr, ctypes.c_char_p, ptr,
                              ptr, ptr]
    lib.csv_write.restype = i64
    lib.double_repr.argtypes = [f64, ctypes.c_char_p, ptr, ptr]  # for the tests
    lib.double_repr.restype = i64
    # byref and get_errno travel along, so that only load() imports ctypes.
    return types.SimpleNamespace(lib=lib, State=State, byref=ctypes.byref,
                                 get_errno=ctypes.get_errno)


def _numpy_blas(ctypes):
    """The scipy-openblas64 library that numpy's wheel bundles, opened only
    if numpy has already loaded it: dlopen with RTLD_NOLOAD returns the very
    object numpy calls and loads nothing new."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if noload is not None:
        for path in sorted(libs.glob(_BLAS_LIBRARY)):
            try:
                return ctypes.CDLL(str(path), mode=noload | os.RTLD_NOW)
            except OSError:
                continue
    raise _Unavailable("numpy's BLAS is not the scipy-openblas64 its wheel bundles")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no home directory to expand ~ to
        raise _Unavailable("no cache directory: neither XDG_CACHE_HOME nor HOME is set")
    return Path(base) / "pairnet"


def _build() -> Path:
    """The path of the compiled loops, built first unless the cache holds them."""
    import hashlib
    import shutil
    import subprocess
    import tempfile

    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"cannot read {_SOURCE.name}: {exc.strerror}") from None
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _cache_dir()
    path = cache / f"_loops-{key}.so"
    if path.is_file():
        return path
    cc = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if cc is None:
        raise _Unavailable("no C compiler")
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=cache)
        os.close(fd)
    except OSError as exc:
        raise _Unavailable(f"cache {cache} not writable: {exc.strerror}") from None
    try:
        # The source goes in on stdin: the very bytes the name is keyed by.
        proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, "-x", "c", "-"], input=source,
                              capture_output=True, timeout=300)
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace").strip()
            first = (err.splitlines() or ["no message"])[0]
            raise _Unavailable(f"C build failed ({cc} exit {proc.returncode}): {first}")
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"C build failed: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
