"""Rank-correlation metrics over a continual-evaluation matrix.

The evaluation matrix holds one Spearman coefficient per (model after
session i, test set of session j) pair: the lower triangle j <= i plus one
look-ahead diagonal j = i + 1. Aggregates:

* pooled correlation: a single Spearman over the union of all test sets
  seen so far (not a mean of per-session coefficients),
* forgetting: per column, spread between the best and worst coefficient a
  test set ever received once it was in the past,
* forward transfer: look-ahead coefficient minus a random-init reference
  on the same (not yet trained) session.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DegenerateInputError(ValueError):
    pass


class MissingCellError(KeyError):
    pass


def _fractional_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    n = v.size
    order = np.argsort(v, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    sv = v[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(truth, predicted) -> float:
    """Pearson correlation of tie-averaged fractional ranks."""
    a = np.asarray(truth, dtype=np.float64).reshape(-1)
    b = np.asarray(predicted, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise DegenerateInputError(f"need at least 2 values, got {a.size}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("non-finite input")
    ra = _fractional_ranks(a) - 0.5 * (a.size + 1)
    rb = _fractional_ranks(b) - 0.5 * (b.size + 1)
    va, vb = (ra * ra).sum(), (rb * rb).sum()
    if va == 0.0 or vb == 0.0:
        raise DegenerateInputError("all-equal values have no rank ordering")
    return float((ra * rb).sum() / np.sqrt(va * vb))


@dataclass
class EvalMatrix:
    """Per-cell Spearman coefficients for one continual run."""

    n_sessions: int
    cells: dict[tuple[int, int], float] = field(default_factory=dict)
    reference: dict[int, float] = field(default_factory=dict)
    pooled: dict[int, float] = field(default_factory=dict)

    def set_cell(self, model_session: int, test_session: int, value: float) -> None:
        i, j = model_session, test_session
        if not (1 <= i <= self.n_sessions and 1 <= j <= self.n_sessions):
            raise ValueError(f"cell ({i}, {j}) outside 1..{self.n_sessions}")
        if j > i + 1:
            raise ValueError(f"cell ({i}, {j}) is neither past nor look-ahead")
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"correlation {value} outside [-1, 1]")
        self.cells[(i, j)] = float(value)

    def cell(self, i: int, j: int) -> float:
        try:
            return self.cells[(i, j)]
        except KeyError:
            raise MissingCellError(f"evaluation cell ({i}, {j}) was never "
                                   f"recorded") from None


def rho_aft(matrix: EvalMatrix, classic: bool = False) -> float:
    """Average forgetting across the T - 1 non-final sessions.

    Default: per test column t, spread between the highest and lowest
    coefficient over models i >= t. ``classic``: best-before-final minus
    the final model's coefficient.
    """
    T = matrix.n_sessions
    if T < 2:
        raise ValueError(f"forgetting needs T >= 2, got {T}")
    total = 0.0
    for t in range(1, T):
        col = [matrix.cell(i, t) for i in range(t, T + 1)]
        if classic:
            total += max(col[:-1]) - col[-1]
        else:
            total += max(col) - min(col)
    return total / (T - 1)


def rho_fwt(matrix: EvalMatrix) -> float:
    """Average look-ahead advantage over the random-init reference."""
    T = matrix.n_sessions
    if T < 2:
        raise ValueError(f"forward transfer needs T >= 2, got {T}")
    total = 0.0
    for t in range(2, T + 1):
        if t not in matrix.reference:
            raise MissingCellError(f"no reference coefficient for session {t}")
        total += matrix.cell(t - 1, t) - matrix.reference[t]
    return total / (T - 1)
