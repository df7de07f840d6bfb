"""Rank metrics against a brute-force counting oracle and frozen examples."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mreplay import metrics


def _ranks_oracle(v):
    # O(n^2) counting definition of tie-averaged fractional ranks
    n = len(v)
    out = []
    for i in range(n):
        less = sum(1 for j in range(n) if v[j] < v[i])
        equal = sum(1 for j in range(n) if v[j] == v[i])
        out.append(less + 0.5 * (equal + 1))
    return out


def _pearson_loop(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((x[i] - mx) * (y[i] - my) for i in range(n))
    vx = sum((x[i] - mx) ** 2 for i in range(n))
    vy = sum((y[i] - my) ** 2 for i in range(n))
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / math.sqrt(vx * vy)


def _spearman_oracle(x, y):
    rx, ry = _ranks_oracle(x), _ranks_oracle(y)
    return _pearson_loop(rx, ry)


def test_spearman_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(42)
    for trial in range(1000):
        n = int(rng.integers(2, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if trial % 2 == 0:
            # quantized inputs force ties
            x = np.round(x, 1)
            y = np.round(y, 1)
        expected = _spearman_oracle(list(x), list(y))
        if expected is None:
            with pytest.raises(metrics.DegenerateInputError):
                metrics.spearman(x, y)
        else:
            assert abs(metrics.spearman(x, y) - expected) < 1e-12


def _tied_pairs():
    # a handful of values, so most draws hold ties
    values = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0])
    return st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.lists(values, min_size=n, max_size=n),
                            st.lists(values, min_size=n, max_size=n)))


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(_tied_pairs())
def test_tied_ranks_and_spearman_match_oracle(pair):
    x, y = pair
    assert metrics._fractional_ranks(np.array(x)).tolist() == _ranks_oracle(x)
    expected = _spearman_oracle(x, y)
    if expected is None:
        with pytest.raises(metrics.DegenerateInputError):
            metrics.spearman(x, y)
    else:
        assert abs(metrics.spearman(x, y) - expected) < 1e-12


def _unique_ranks(v):
    # the tie-averaging ranks through np.unique, which every input took
    # before the no-tie fast path
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 2000), st.sampled_from(["distinct", "few", "zeros", "one_tie"]),
       st.integers(0, 2**32 - 1))
def test_rank_fast_path_equals_unique_ranks_as_bytes(n, kind, seed):
    # distinct values take the fast path; any tie, -0.0 against 0.0
    # included, falls back to np.unique
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    if kind == "few":
        v = rng.choice([-2.5, -1.0, 0.0, 0.5, 3.0], size=n)
    elif kind == "zeros":
        v[rng.integers(0, n, size=2)] = [-0.0, 0.0]
    elif kind == "one_tie":
        v[rng.integers(0, n)] = v[rng.integers(0, n)]
    assert metrics._fractional_ranks(v).tobytes() == _unique_ranks(v).tobytes()
    assert metrics.centred_ranks(v).tobytes() == (_unique_ranks(v) - 0.5 * (n + 1)).tobytes()


def test_spearman_with_given_truth_ranks_is_the_same_number():
    rng = np.random.default_rng(9)
    truth, pred = rng.normal(size=30), rng.normal(size=30)
    ranks = metrics.centred_ranks(truth)
    assert metrics.spearman(truth, pred, ranks) == metrics.spearman(truth, pred)
    with pytest.raises(ValueError, match="truth ranks"):
        metrics.spearman(truth, pred, ranks[:-1])


def test_spearman_frozen_examples():
    assert metrics.spearman([1, 2, 3, 4], [2, 1, 3, 4]) == 0.8
    assert metrics.spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert metrics.spearman([1, 2, 3], [3, 2, 1]) == -1.0


def test_spearman_tied_inputs():
    # ranks [1.5, 1.5, 3] on both sides
    assert abs(metrics.spearman([1.0, 1.0, 2.0], [5.0, 5.0, 9.0]) - 1.0) < 1e-15


def test_spearman_monotone_transform_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    base = metrics.spearman(x, y)
    assert metrics.spearman(x, np.exp(y)) == base
    assert metrics.spearman(x, y ** 3) == base
    assert metrics.spearman(x, 1000.0 * y + 7.0) == base


def test_spearman_errors():
    with pytest.raises(metrics.DegenerateInputError):
        metrics.spearman([1.0], [1.0])
    with pytest.raises(metrics.DegenerateInputError):
        metrics.spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        metrics.spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        metrics.spearman([1.0, np.nan], [1.0, 2.0])


def test_pooled_differs_from_mean_of_sessions():
    # both sessions correlate perfectly on their own, yet the pooled ranking
    # is badly wrong because session 2 predictions sit below session 1's
    t1, p1 = [1.0, 2.0], [10.0, 20.0]
    t2, p2 = [3.0, 4.0], [1.0, 2.0]
    assert metrics.spearman(t1, p1) == 1.0
    assert metrics.spearman(t2, p2) == 1.0
    pooled = metrics.spearman(t1 + t2, p1 + p2)
    assert pooled == -0.6


def test_eval_matrix_cell_rules():
    m = metrics.EvalMatrix(n_sessions=3)
    m.set_cell(1, 1, 0.5)
    m.set_cell(1, 2, 0.1)  # look-ahead allowed
    with pytest.raises(ValueError):
        m.set_cell(1, 3, 0.1)  # two ahead is not
    with pytest.raises(ValueError):
        m.set_cell(0, 1, 0.1)
    with pytest.raises(ValueError):
        m.set_cell(4, 1, 0.1)
    with pytest.raises(ValueError):
        m.set_cell(2, 1, 1.5)
    assert m.cell(1, 1) == 0.5
    with pytest.raises(metrics.MissingCellError):
        m.cell(3, 1)


def test_rho_aft_two_sessions():
    m = metrics.EvalMatrix(n_sessions=2)
    m.set_cell(1, 1, 0.9)
    m.set_cell(2, 1, 0.8)
    m.set_cell(2, 2, 0.7)
    assert abs(metrics.rho_aft(m) - 0.1) < 1e-15
    assert abs(metrics.rho_aft(m, classic=True) - 0.1) < 1e-15


def test_rho_aft_spread_vs_classic():
    # column 1 recovers after a dip: spread sees it, classic only the end drop
    m = metrics.EvalMatrix(n_sessions=3)
    m.set_cell(1, 1, 0.5)
    m.set_cell(2, 1, 0.9)
    m.set_cell(3, 1, 0.7)
    m.set_cell(2, 2, 0.8)
    m.set_cell(3, 2, 0.8)
    m.set_cell(3, 3, 0.6)
    assert abs(metrics.rho_aft(m) - 0.2) < 1e-15          # ((0.9-0.5) + 0) / 2
    assert abs(metrics.rho_aft(m, classic=True) - 0.1) < 1e-15  # ((0.9-0.7) + 0) / 2


def test_rho_aft_missing_cell_raises():
    m = metrics.EvalMatrix(n_sessions=2)
    m.set_cell(1, 1, 0.9)
    with pytest.raises(metrics.MissingCellError):
        metrics.rho_aft(m)
    with pytest.raises(ValueError):
        metrics.rho_aft(metrics.EvalMatrix(n_sessions=1))


def test_rho_fwt_frozen():
    m = metrics.EvalMatrix(n_sessions=2)
    m.set_cell(1, 2, 0.6)
    m.reference[2] = 0.1
    assert abs(metrics.rho_fwt(m) - 0.5) < 1e-15


def test_rho_fwt_requires_reference():
    m = metrics.EvalMatrix(n_sessions=2)
    m.set_cell(1, 2, 0.6)
    with pytest.raises(metrics.MissingCellError):
        metrics.rho_fwt(m)


def test_rho_fwt_averages_transitions():
    m = metrics.EvalMatrix(n_sessions=3)
    m.set_cell(1, 2, 0.6)
    m.set_cell(2, 3, 0.4)
    m.reference[2] = 0.1
    m.reference[3] = 0.2
    assert abs(metrics.rho_fwt(m) - 0.35) < 1e-15
