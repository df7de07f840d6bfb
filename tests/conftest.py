"""Shared test setup."""
from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from mreplay import data

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


@pytest.fixture(autouse=True)
def no_kept_artifacts(monkeypatch):
    """Start every test with nothing kept by ``data.kept``: no dataset,
    split or checkpoint, so a test that reads a file runs its reader, not
    what an earlier test left behind."""
    monkeypatch.setattr(data, "_KEPT", {})


WORKER_TEST_SECONDS = 300


class CallLog:
    """A log that this process and the workers it forks append to: one
    JSON line per entry in a file, so what a patched function records in a
    worker reaches the test."""

    def __init__(self, path):
        self.path = path

    def append(self, *entry) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps([os.getpid(), *entry]) + "\n")

    def by_pid(self) -> dict:
        """Each pid's entries, as tuples, in the order that pid wrote them."""
        out = {}
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                pid, *entry = json.loads(line)
                out.setdefault(pid, []).append(tuple(entry))
        return out


@pytest.fixture()
def workers(monkeypatch, tmp_path):
    """``workers(n)`` makes ``trainer.run_many`` see n CPUs in the affinity
    mask and returns the list of pids it forks from then on;
    ``workers.log`` is a ``CallLog`` for what patched functions record in
    this process and in the workers. A test that uses it fails after
    ``WORKER_TEST_SECONDS`` instead of hanging on a pipe that never ends,
    as a worker left running or a leaked write end would make it; forked
    workers do not inherit the alarm."""
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
    use.log = CallLog(tmp_path / "calls.jsonl")
    yield use
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
