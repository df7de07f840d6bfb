"""Shared test setup."""
from __future__ import annotations

import os
import shutil
import signal
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")


def pytest_configure(config):
    # even with database=None, hypothesis caches the constants it scans from
    # the package source under its home directory (./.hypothesis by default),
    # and does so while collecting; give it a directory that ends with the run
    set_hypothesis_home_dir(_hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(_hypothesis_home, ignore_errors=True)


@pytest.fixture(autouse=True)
def no_stray_children():
    """Fail a test after which this process has a child, running or zombie."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is still running" if pid == 0 else
                f"child process {pid} was never reaped")


WORKER_TEST_SECONDS = 300


@pytest.fixture()
def workers(monkeypatch):
    """``workers(n)`` makes ``trainer.run_many`` see n CPUs in the affinity
    mask and returns the list of pids it forks from then on. A test that
    uses it fails after ``WORKER_TEST_SECONDS`` instead of hanging on a pipe
    that never ends, as a worker left running or a leaked write end would
    make it; forked workers do not inherit the alarm."""
    def expire(signum, frame):
        pytest.fail(f"no end after {WORKER_TEST_SECONDS} s: a run_many pipe was left open")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(WORKER_TEST_SECONDS)

    def use(n: int) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        pids, real = [], os.fork

        def fork():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids
    yield use
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
