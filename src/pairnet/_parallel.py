"""Independent tasks fanned out to forked worker processes, in order.

The pairwise tests train independently of each other, and each signal file
is featurized on its own, so both spread over processes. Threads would not
help the numpy fallback: ``np.loadtxt`` and the numpy visit loops hold the
GIL. The compiled visit loops release it for each ctypes call, at most one
epoch of visits long, but processes serve both paths alike.

The workers are forked, not spawned: each inherits the function it applies,
and whatever dataset or configuration that closes over, from the parent's
memory, with no fresh interpreter to start. Each takes a fixed share of the
items and sends back one pickle through a pipe: only its results and its
first error cross. OpenBLAS stops its thread pool around a fork; a caller that
runs threads of its own should keep jobs=1, since a lock one of them holds
at the fork stays held in the workers.
"""

import os
import pickle
import signal

from .errors import ParameterError

# The most workers a default asks for: the CPU count that the speed and the
# summed memory of the workers were measured at. The CPUs this process may
# run on can be many more than it gets, and each worker adds memory of its
# own, so more have to be asked for.
MAX_DEFAULT_JOBS = 2

# Where the cgroup file systems are mounted: a CPU quota there caps the
# default too, since the CPUs a process may run on do not show it.
_CGROUP_ROOT = "/sys/fs/cgroup"


def _cpu_quota() -> int | None:
    """The CPUs that the cgroup CPU quota grants, ceil(quota / period): read
    from cgroup v2's cpu.max, else from v1's cpu.cfs_quota_us and
    cpu.cfs_period_us. None where there is no quota ("max", or -1) or none
    that can be read."""
    def read(*parts):
        with open(os.path.join(_CGROUP_ROOT, *parts), encoding="ascii") as fh:
            return fh.read()

    try:
        try:
            quota, period = read("cpu.max").split()
        except FileNotFoundError:
            quota, period = read("cpu", "cpu.cfs_quota_us"), read("cpu", "cpu.cfs_period_us")
        quota, period = int(quota), int(period)
    except (OSError, ValueError):  # no cgroup files, "max", or unreadable
        return None
    if quota <= 0 or period <= 0:
        return None
    return -(-quota // period)


def default_jobs() -> int:
    """The CPUs this process may run on, capped by its cgroup's CPU quota
    and then by MAX_DEFAULT_JOBS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return min(cpus, MAX_DEFAULT_JOBS)


def check_jobs(jobs) -> None:
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")


def _work(fn, share, parent: int, out: int) -> None:
    """In a forked worker: fn over share, in turn, stopping at the first
    item that fails, or before the next item once the parent is gone; then
    (results, the exception or None) as one pickle to the pipe out."""
    results, error = [], None
    try:
        for item in share:
            if os.getppid() != parent:  # orphaned: no one reads the results
                return
            results.append(fn(item))
    except Exception as exc:
        error = exc
    with open(out, "wb") as fh:
        pickle.dump((results, error), fh, pickle.HIGHEST_PROTOCOL)


def ordered_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], computed by up to jobs worker processes.

    Of k workers, worker w computes items[w::k] in turn. Results come back
    in item order, and so do errors: once every worker has finished or
    failed, the exception of the first failing item is raised, whichever
    worker failed first. With one worker, or where processes cannot be
    forked, fn runs in this process. The workers are killed and reaped
    before this returns or raises; if one dies (say, killed for memory), the
    call raises ParameterError instead of waiting for its result. A worker
    whose parent dies exits before its next item.
    """
    check_jobs(jobs)
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return list(map(fn, items))
    parent, pids, pipes = os.getpid(), [], []
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        for fh in pipes:
                            fh.close()
                        _work(fn, items[w::workers], parent, write)
                    finally:
                        os._exit(0)
                pids.append(pid)
            finally:
                os.close(write)  # in this process: a worker never leaves the block
        shares = [pickle.load(fh) for fh in pipes]
    except (EOFError, pickle.UnpicklingError):
        raise ParameterError(
            f"a worker process died before finishing its task (jobs={jobs}); "
            "if it ran out of memory, fewer jobs may fit"
        ) from None
    finally:
        for fh in pipes:
            fh.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [w + workers * len(done) for w, (done, exc) in enumerate(shares) if exc is not None]
    if failed:
        raise shares[min(failed) % workers][1]
    return [shares[k % workers][0][k // workers] for k in range(len(items))]
