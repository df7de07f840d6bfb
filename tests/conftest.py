"""Shared test setup."""
from __future__ import annotations

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")


def pytest_configure(config):
    # even with database=None, hypothesis caches the constants it scans from
    # the package source under its home directory (./.hypothesis by default),
    # and does so while collecting; give it a directory that ends with the run
    set_hypothesis_home_dir(_hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(_hypothesis_home, ignore_errors=True)
