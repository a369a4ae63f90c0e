import os
import signal
import time

import pytest

from pairnet import _parallel
from pairnet._parallel import ordered_map
from pairnet.errors import ParameterError, ParseError


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


def _sleep_then_fail(item):
    delay, line = item
    time.sleep(delay)
    if line is not None:
        raise ParseError(f"the error of the item at line {line}", line=line)


@pytest.mark.parametrize("jobs,items", [
    # Item 1 fails long before item 0; the error raised is still item 0's,
    # with its line number and text.
    pytest.param(1, [(0.3, 7), (0, 2)], id="1"),
    pytest.param(2, [(0.3, 7), (0, 2)], id="2"),
    # Item 2 opens the third worker's share and fails last; item 3, second
    # in the first worker's share, fails first.
    pytest.param(3, [(0, None), (0, None), (0.3, 7), (0, 2), (0, None), (0, None)],
                 id="3-earliest-in-the-last-share"),
    # The second worker fails at its first item; the others finish.
    pytest.param(3, [(0, None), (0, 7), (0, None), (0, None), (0, None), (0, None)],
                 id="3-one-share-fails-at-once"),
])
def test_first_failing_item_decides_the_error(jobs, items):
    with pytest.raises(ParseError) as exc:
        ordered_map(_sleep_then_fail, items, jobs)
    assert exc.value.line == 7
    assert str(exc.value) == "line 7: the error of the item at line 7"


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
def test_default_jobs_is_the_usable_cpus_capped(monkeypatch, tmp_path, cpus, want):
    monkeypatch.setattr(_parallel, "_CGROUP_ROOT", str(tmp_path))  # no quota
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert _parallel.default_jobs() == want


@pytest.mark.parametrize("files,want", [
    ({}, 8),
    ({"cpu.max": "max 100000\n"}, 8),
    ({"cpu.max": "250000 100000\n"}, 3),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu.max": "200000 100000\n", "cpu/cpu.cfs_quota_us": "50000\n",
      "cpu/cpu.cfs_period_us": "100000\n"}, 2),  # v2 wins
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8),
    ({"cpu/cpu.cfs_quota_us": "150000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
    ({"cpu/cpu.cfs_quota_us": "150000\n"}, 8),  # no period
    ({"cpu.max": "lots 100000\n"}, 8),
    ({"cpu.max": "100000 0\n"}, 8),
    ({"cpu.max": "\n"}, 8),
])
def test_default_jobs_honours_a_cpu_quota(monkeypatch, tmp_path, files, want):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(_parallel, "_CGROUP_ROOT", str(tmp_path))
    monkeypatch.setattr(_parallel, "MAX_DEFAULT_JOBS", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert _parallel.default_jobs() == want
