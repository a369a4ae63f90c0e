import multiprocessing
import os
import signal
import time

import pytest

from pairnet import _parallel
from pairnet._parallel import ordered_map
from pairnet.errors import ParameterError, ParseError


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert multiprocessing.active_children() == []
    assert _parallel._task is None


@pytest.mark.parametrize("jobs", [1, 2, 3, 8])
def test_results_in_item_order(jobs):
    # A lambda cannot be pickled: the workers get it through the fork.
    assert ordered_map(lambda k: k * k, range(7), jobs) == [k * k for k in range(7)]


def test_two_jobs_run_in_other_processes():
    pids = ordered_map(lambda _: (os.getpid(), time.sleep(0.2))[0], range(4), 2)
    assert os.getpid() not in pids


def test_one_job_or_one_item_runs_inline():
    assert ordered_map(lambda _: os.getpid(), range(3), 1) == [os.getpid()] * 3
    assert ordered_map(lambda _: os.getpid(), [0], 4) == [os.getpid()]
    assert ordered_map(lambda _: os.getpid(), [], 4) == []


def test_without_fork_runs_inline(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert ordered_map(lambda _: os.getpid(), range(3), 2) == [os.getpid()] * 3


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ParameterError, match=f"jobs must be >= 1, got {jobs}"):
        ordered_map(abs, [1, 2], jobs)


def _slow_then_fail(k):
    if k == 0:
        time.sleep(0.3)
        raise ParseError("first item's error", line=7)
    raise ParseError("later item's error", line=2)


@pytest.mark.parametrize("jobs", [1, 2])
def test_first_failing_item_decides_the_error(jobs):
    # Item 1 fails long before item 0; the error raised is still item 0's,
    # with its line number and text.
    with pytest.raises(ParseError) as exc:
        ordered_map(_slow_then_fail, [0, 1], jobs)
    assert exc.value.line == 7
    assert str(exc.value) == "line 7: first item's error"


def _timed_out(signum, frame):
    raise TimeoutError("ordered_map still waiting after 60 s")


def test_dead_worker_raises_instead_of_waiting():
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(60)
    try:
        with pytest.raises(ParameterError, match=r"a worker process died before "
                                                 r"finishing its task \(jobs=2\)"):
            ordered_map(lambda k: os._exit(1) if k == 1 else k, range(4), 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cpus,want", [(1, 1), (2, 2), (64, _parallel.MAX_DEFAULT_JOBS)])
def test_default_jobs_is_the_usable_cpus_capped(monkeypatch, cpus, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert _parallel.default_jobs() == want
