"""Fixtures shared by every test module.

The decay suite's map forks a child process (experiments._pmap), so every
test checks afterwards that no child of the test process is left running
or unreaped, whatever its items did.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "running" if pid == 0 else f"unreaped (pid {pid})"
    pytest.fail(f"the test left a child process {state}")


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes os.sched_getaffinity read n CPUs, so experiments._pmap
    forks on any machine when n > 1; on one CPU os.fork raises.  It returns
    the list of the pids forked in this process, one per fork."""
    real_fork, pids = os.fork, []

    def fork():
        if len(os.sched_getaffinity(0)) < 2:
            raise AssertionError("forked on one CPU")
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)))
        return pids

    monkeypatch.setattr(os, "fork", fork)
    return set_cpus
