import errno
import os
import signal
import time

import pytest


def _children(pid):
    """The child process ids of pid, read from /proc."""
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(c) for c in fh.read().split()]


def _alive(pid):
    """Whether pid runs: neither gone nor a zombie left for init to reap."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_for(probe, what, timeout=30.0):
    """probe()'s first truthy value, polled until timeout seconds pass."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        got = probe()
        if got:
            return got
        time.sleep(0.05)
    raise AssertionError(f"no {what} after {timeout} s")


def fails_on_call(real, call):
    """real, but raising EAGAIN, as at a process limit, on its call-th call;
    .calls counts the calls made."""
    def patched(*args):
        patched.calls += 1
        if patched.calls == call:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real(*args)
    patched.calls = 0
    return patched


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps the processes it starts: a worker still running, or
    exited but not waited for, is still a child of the test process. Those
    left are killed and reaped, so that the next test starts with none."""
    yield
    left = _children(os.getpid())
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert left == []
