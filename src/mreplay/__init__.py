"""Continual quality-score regression with manifold-aligned feature replay."""

__version__ = "0.1.0"

from .metrics import spearman  # noqa: E402,F401 - bench/test_checks.py traces mreplay.spearman
