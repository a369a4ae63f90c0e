import errno
import os
import signal
import time
import traceback

import pytest
from conftest import fails_on_call

from pairnet import _parallel, cli
from pairnet._parallel import ordered_map
from pairnet.errors import (DimensionError, EmptyInputError, ParameterError, ParseError,
                            RangeError, SchemaError, TrainingError)


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


@pytest.mark.parametrize("name,call", [("fork", 1), ("fork", 2), ("pipe", 2)])
def test_failed_fork_runs_inline(monkeypatch, name, call):
    # A worker forked before the failure is killed and reaped: the
    # no_child_left fixture checks it.
    monkeypatch.setattr(os, name, fails_on_call(getattr(os, name), call))
    assert ordered_map(lambda k: (k * k, os.getpid()), range(5), 2) == [
        (k * k, os.getpid()) for k in range(5)]


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
    # Inline or in a worker, the traceback shows the frame that raised.
    assert "in _sleep_then_fail" in "".join(traceback.format_exception(exc.value))


def test_unexpected_worker_error_shows_the_worker_frame():
    with pytest.raises(ZeroDivisionError) as exc:
        ordered_map(lambda k: 1 // (k - 3), range(6), 2)
    assert isinstance(exc.value.__cause__, _parallel._RemoteTraceback)
    shown = "".join(traceback.format_exception(exc.value))
    assert "in _work" in shown and "in <lambda>" in shown
    assert "1 // (k - 3)" in str(exc.value.__cause__)


# The errors cli.main maps to exit codes, as the commands raise them.
MAPPED_ERRORS = {
    "schema": (lambda: SchemaError("class 2 has no records"), 3),
    "parse-with-line": (lambda: ParseError("expected 2 cells, found 1", line=12), 3),
    "parse": (lambda: ParseError("not UTF-8 text: invalid start byte at byte 4"), 3),
    "empty-input": (lambda: EmptyInputError("no segments to featurize"), 3),
    "file-not-found": (lambda: FileNotFoundError(errno.ENOENT, "No such file or directory",
                                                 "rec1.txt"), 3),
    "permission": (lambda: PermissionError(errno.EACCES, "Permission denied", "out.csv"), 3),
    "parameter": (lambda: ParameterError("--c must be finite and > 0, got nan"), 2),
    "dimension": (lambda: DimensionError("x has 3 features, the model 4"), 4),
    "training": (lambda: TrainingError("class 2 has no training rows"), 4),
    "range": (lambda: RangeError("the training input is not finite"), 4),
}


def _error_at_item_two(make):
    def fn(k):
        if k == 2:
            raise make()
        return k
    return fn


def _exception_state(exc):
    return (type(exc), exc.args, str(exc), vars(exc), getattr(exc, "errno", None),
            getattr(exc, "strerror", None), getattr(exc, "filename", None))


@pytest.mark.parametrize("case", list(MAPPED_ERRORS))
def test_mapped_errors_keep_their_messages_and_exit_codes(monkeypatch, capsys, case):
    # Raised in a worker, an error reaches the caller, and cli.main's exit
    # code and message, as it does raised in this process.
    make, code = MAPPED_ERRORS[case]
    fn = _error_at_item_two(make)
    state = {}
    for jobs in (1, 3):
        with pytest.raises(type(make())) as exc:
            ordered_map(fn, range(6), jobs)
        state[jobs] = _exception_state(exc.value)
        assert (exc.value.__cause__ is None) == (jobs == 1)

        def command(args, jobs=jobs):
            ordered_map(fn, range(6), jobs)
            return [], []

        monkeypatch.setattr(cli, "cmd_gen", command)
        assert cli.main(["gen", "--out", "unused.csv"]) == code
        assert capsys.readouterr().err == f"pairnet: {make()}\n"
    assert state[3] == state[1] == _exception_state(make())


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


class _TwoArgumentError(Exception):
    """Its pickle calls __init__ with its args, one argument short."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("make,kind,message", [
    # The worker's dump fails: a lambda does not pickle.
    (lambda: ValueError(lambda: 0), "ValueError", "<function "),
    # The dump succeeds, but loading it calls __init__ with one argument.
    (lambda: _TwoArgumentError("bad cell", "line 3"), "_TwoArgumentError",
     "bad cell at line 3"),
], ids=["dump-fails", "load-fails"])
def test_errors_that_do_not_survive_a_pickle_arrive_as_a_stand_in(make, kind, message):
    with pytest.raises(_parallel.WorkerError) as exc:
        ordered_map(_error_at_item_two(make), range(4), 2)
    assert str(exc.value).startswith(f"{kind}: {message}")
    # The traceback, as text, still shows the frame that raised.
    cause = str(exc.value.__cause__)
    assert isinstance(exc.value.__cause__, _parallel._RemoteTraceback)
    assert "in fn" in cause and "raise make()" in cause and kind in cause
