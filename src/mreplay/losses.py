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


def score_distance_matrix(scores) -> np.ndarray:
    """Pairwise score gaps: entry (i, j) is y_i - y_j. A 2-D array is a
    stack of lanes' score rows, one matrix each."""
    y = np.asarray(scores, dtype=np.float64)
    y = y if y.ndim == 2 else y.reshape(-1)
    if y.shape[-1] < 1:
        raise ValueError("scores must be non-empty")
    if not np.isfinite(y).all():
        raise ad.NonFiniteError("non-finite score")
    return y[..., :, None] - y[..., None, :]
