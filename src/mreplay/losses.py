"""The score side of the graph regularizer: pairwise score gaps.

The graph term compares two n x n matrices row by row:

* A: angular distances between row-normalized feature vectors,
* S: signed differences between normalized scores.

Each row of A and S is pushed through a softmax and compared with a KL
divergence, averaged over rows. The full regularizer sums this row loss
over the joint matrix and its four blocks (old/old, old/new, new/old,
new/new), so cross-session structure is constrained both globally and
within each block. S is data, made here; from the stacked features to the
summed terms the regularizer is ``autodiff.graph_fwd`` and its backward
half ``autodiff.graph_bwd``, which the training step calls beside the
halves of its other terms.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad


def score_distance_matrix(scores, signed: bool = True) -> np.ndarray:
    """Pairwise score gaps: entry (i, j) is y_i - y_j, or |y_i - y_j|."""
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    if y.size < 1:
        raise ValueError("scores must be non-empty")
    if not np.isfinite(y).all():
        raise ad.NonFiniteError("non-finite score")
    s = y[:, None] - y[None, :]
    return np.abs(s) if not signed else s
