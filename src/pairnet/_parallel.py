"""Independent tasks fanned out to forked worker processes, in order.

The pairwise tests train independently of each other, and each signal file
is featurized on its own, so both spread over processes. Threads would not
help: the per-visit loops and ``np.loadtxt`` hold the GIL.

The workers are forked, not spawned: each inherits the function it applies,
and whatever dataset or configuration that closes over, from the parent's
memory, with no fresh interpreter to start. Only the items and the results
are pickled. The pool forks its workers before it starts a thread of its
own, and OpenBLAS stops its thread pool around a fork; a caller that runs
threads of its own should keep jobs=1, since a lock one of them holds at
the fork stays held in the workers.
"""

import os
import threading
import time

from .errors import ParameterError

# The most workers a default asks for: the CPU count that the speed and the
# summed memory of the workers were measured at. The CPUs this process may
# run on can be many more than it gets (a CPU quota does not shrink them),
# and each worker adds memory of its own, so more have to be asked for.
MAX_DEFAULT_JOBS = 2

# How often a worker checks that its parent is still alive, in seconds.
_ORPHAN_POLL_S = 0.2

# In a worker, the function it applies.
_task = None


def _install(fn, parent: int) -> None:
    global _task
    _task = fn
    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()


def _exit_when_orphaned(parent: int) -> None:
    # A parent killed outright (SIGKILL, or SIGTERM's default action) never
    # shuts its pool down, and a worker waiting for its next task would wait
    # for good: it holds the task queue's write end itself, so it never
    # reads end-of-file.
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _run_task(item):
    return _task(item)


def default_jobs() -> int:
    """The CPUs this process may run on, at most MAX_DEFAULT_JOBS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_DEFAULT_JOBS)


def check_jobs(jobs) -> None:
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")


def ordered_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], computed by up to jobs worker processes.

    Results come back in item order, and so do errors: the exception of the
    first failing item is raised, whichever worker fails first. With one
    worker, or where processes cannot be forked, fn runs in this process.
    The workers are shut down and joined before this returns or raises; if
    one dies (say, killed for memory), the call raises ParameterError
    instead of waiting for its result. A worker whose parent dies exits.
    """
    check_jobs(jobs)
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return list(map(fn, items))
    # Imported here: they add about 2 MB and 20 ms to every command that
    # runs inline.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Under fork, initargs reach the workers through the fork, unpickled.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_install, initargs=(fn, os.getpid()))
    try:
        return list(pool.map(_run_task, items))
    except BrokenProcessPool:
        raise ParameterError(
            f"a worker process died before finishing its task (jobs={jobs}); "
            "if it ran out of memory, fewer jobs may fit"
        ) from None
    finally:
        pool.shutdown(cancel_futures=True)
