"""Replay bank: selection against an enumeration oracle, refresh guard."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mreplay import memory


def _ous_oracle(scores, m, ids=None):
    # independent restatement: sort (score, id) pairs, walk the rank list
    n = len(scores)
    keys = ids if ids is not None else list(range(n))
    pairs = sorted(range(n), key=lambda i: (scores[i], keys[i]))
    m = min(m, n)
    if m == 1:
        return [pairs[(n - 1) // 2]]
    picks = []
    for k in range(m):
        picks.append(pairs[(k * (n - 1)) // (m - 1)])
    return picks


def test_ous_frozen_example():
    scores = [0.9, 0.1, 0.5, 0.3, 0.7]
    # sorted order by score: indices 1(.1), 3(.3), 2(.5), 4(.7), 0(.9)
    assert memory.ous_select(scores, 3) == [1, 2, 0]
    assert memory.ous_select(scores, 2) == [1, 0]
    assert memory.ous_select(scores, 1) == [2]
    assert memory.ous_select(scores, 5) == [1, 3, 2, 4, 0]


def test_ous_extremes_always_included():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        scores = rng.normal(size=n)
        for m in range(2, min(n, 12) + 1):
            picked = memory.ous_select(scores, m)
            assert int(np.argmin(scores)) == picked[0] or scores[picked[0]] == scores.min()
            assert int(np.argmax(scores)) == picked[-1] or scores[picked[-1]] == scores.max()
            assert len(set(picked)) == m


def test_ous_matches_oracle_on_random_sets():
    rng = np.random.default_rng(123)
    for trial in range(200):
        n = int(rng.integers(1, 50))
        if trial % 3 == 0:
            scores = rng.integers(0, 5, size=n).astype(float)  # heavy ties
        else:
            scores = rng.normal(size=n)
        ids = [f"s{int(v):05d}" for v in rng.permutation(n)]
        m = int(rng.integers(1, 15))
        assert memory.ous_select(scores, m, ids=ids) == _ous_oracle(list(scores), m, ids)


@st.composite
def _ous_inputs(draw):
    """Scores (often tied) with distinct ids, a selection size and a
    permutation of the items."""
    score = st.one_of(st.integers(0, 4).map(float),
                      st.floats(allow_nan=False, allow_infinity=False))
    items = draw(st.lists(st.tuples(score, st.text(max_size=4)), min_size=1,
                          max_size=40, unique_by=lambda item: item[1]))
    return items, draw(st.integers(1, 45)), draw(st.permutations(range(len(items))))


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(_ous_inputs())
def test_ous_select_properties(inputs):
    items, m, perm = inputs
    scores, ids = [s for s, _ in items], [i for _, i in items]
    n = len(items)
    picked = memory.ous_select(scores, m, ids=ids)
    assert len(picked) == len(set(picked)) == min(m, n)
    keys = [(scores[i], ids[i]) for i in picked]
    assert keys == sorted(keys)
    ranked = sorted(range(n), key=lambda i: (scores[i], ids[i]))
    if min(m, n) >= 2:
        assert picked[0] == ranked[0] and picked[-1] == ranked[-1]
    if m == 1:
        assert picked == [ranked[(n - 1) // 2]]
    permuted = memory.ous_select([scores[i] for i in perm], m, ids=[ids[i] for i in perm])
    assert [ids[perm[i]] for i in permuted] == [ids[i] for i in picked]


def test_ous_tie_break_uses_ids():
    scores = [1.0, 1.0, 1.0]
    assert memory.ous_select(scores, 2, ids=["c", "a", "b"]) == [1, 0]
    assert memory.ous_select(scores, 2, ids=["a", "b", "c"]) == [0, 2]


def test_ous_clips_m_and_rejects_bad_args():
    assert memory.ous_select([1.0, 2.0], 10) == [0, 1]
    with pytest.raises(ValueError):
        memory.ous_select([], 1)
    with pytest.raises(ValueError):
        memory.ous_select([1.0], 0)
    with pytest.raises(ValueError):
        memory.ous_select([1.0, 2.0], 2, ids=["only-one"])


def test_store_session_and_duplicate_guard():
    bank = memory.MemoryBank(capacity=3)
    feats = np.arange(10.0).reshape(5, 2)
    scores = [0.9, 0.1, 0.5, 0.3, 0.7]
    ids = [f"s{i:05d}" for i in range(5)]
    chosen = memory.store_session(bank, feats, scores, ids, session=1)
    assert chosen == [1, 2, 0]
    assert bank.size == 3
    assert bank.sessions() == {1}
    assert [r.sample_id for r in bank.entries] == ["s00001", "s00002", "s00000"]
    assert np.array_equal(bank.features(), feats[[1, 2, 0]])
    assert np.array_equal(bank.scores(), np.array(scores)[[1, 2, 0]])
    with pytest.raises(memory.DuplicateSessionError):
        memory.store_session(bank, feats, scores, ids, session=1)
    memory.store_session(bank, feats[:2], scores[:2], ids[:2], session=2)
    assert bank.size == 5


def test_store_copies_features():
    bank = memory.MemoryBank(capacity=1)
    feats = np.ones((2, 2))
    memory.store_session(bank, feats, [1.0, 2.0], ["a", "b"], session=1)
    feats[:] = 99.0
    assert bank.entries[0].feature[0] == 1.0


def test_store_shape_mismatch():
    bank = memory.MemoryBank(capacity=2)
    with pytest.raises(ValueError):
        memory.store_session(bank, np.ones((3, 2)), [1.0, 2.0], ["a", "b"], session=1)


def test_random_store_needs_rng_and_differs_from_ous():
    bank = memory.MemoryBank(capacity=2)
    feats = np.arange(20.0).reshape(10, 2)
    scores = list(range(10))
    ids = [str(i) for i in range(10)]
    with pytest.raises(ValueError):
        memory.store_session(bank, feats, scores, ids, session=1, random_sampling=True)
    rng = np.random.default_rng(5)
    chosen = memory.store_session(bank, feats, scores, ids, session=1,
                                  rng=rng, random_sampling=True)
    assert len(chosen) == 2
    assert scores[chosen[0]] <= scores[chosen[1]]


def test_sample_replay_uniform_and_capped():
    bank = memory.MemoryBank(capacity=10)
    feats = np.arange(20.0).reshape(10, 2)
    memory.store_session(bank, feats, list(range(10)),
                         [str(i) for i in range(10)], session=1)
    rng = np.random.default_rng(9)
    f, y, sample_ids = memory.sample_replay(bank, 4, rng)
    assert f.shape == (4, 2) and y.shape == (4,) and len(sample_ids) == 4
    assert len(set(sample_ids)) == 4
    # b1 larger than the bank returns everything
    f2, y2, _ = memory.sample_replay(bank, 99, rng)
    assert f2.shape == (10, 2)
    assert set(y2.tolist()) == set(float(i) for i in range(10))


def test_sample_replay_deterministic_for_fixed_seed():
    bank = memory.MemoryBank(capacity=10)
    memory.store_session(bank, np.arange(20.0).reshape(10, 2), list(range(10)),
                         [str(i) for i in range(10)], session=1)
    a = memory.sample_replay(bank, 5, np.random.default_rng(77))
    b = memory.sample_replay(bank, 5, np.random.default_rng(77))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]


def test_sample_replay_covers_bank_uniformly():
    bank = memory.MemoryBank(capacity=10)
    memory.store_session(bank, np.arange(20.0).reshape(10, 2), list(range(10)),
                         [str(i) for i in range(10)], session=1)
    rng = np.random.default_rng(31)
    counts = np.zeros(10)
    for _ in range(2000):
        _, y, _ = memory.sample_replay(bank, 3, rng)
        for v in y:
            counts[int(v)] += 1
    freq = counts / counts.sum()
    assert abs(freq.max() - 0.1) < 0.02 and abs(freq.min() - 0.1) < 0.02


def test_empty_bank_raises():
    bank = memory.MemoryBank(capacity=2)
    with pytest.raises(memory.EmptyBankError):
        memory.sample_replay(bank, 1, np.random.default_rng(0))


def test_refresh_applies_once_per_session():
    bank = memory.MemoryBank(capacity=2)
    memory.store_session(bank, np.array([[1.0, 2.0], [3.0, 4.0]]),
                         [0.1, 0.9], ["a", "b"], session=1)
    memory.refresh(bank, lambda h: h * 2.0, epoch=2)
    assert np.array_equal(bank.features(), [[2.0, 4.0], [6.0, 8.0]])
    assert np.array_equal(bank.scores(), [0.1, 0.9])  # scores untouched
    with pytest.raises(memory.RefreshGuardError):
        memory.refresh(bank, lambda h: h, epoch=2)
    with pytest.raises(memory.RefreshGuardError):
        memory.refresh(bank, lambda h: h, epoch=1)
    memory.refresh(bank, lambda h: h + 1.0, epoch=3)
    assert np.array_equal(bank.features(), [[3.0, 5.0], [7.0, 9.0]])


def test_refresh_rejects_bad_outputs():
    bank = memory.MemoryBank(capacity=2)
    memory.store_session(bank, np.ones((2, 3)), [0.1, 0.9], ["a", "b"], session=1)
    with pytest.raises(ValueError):
        memory.refresh(bank, lambda h: h[:, :2], epoch=2)
    with pytest.raises(ValueError):
        memory.refresh(bank, lambda h: h * np.nan, epoch=3)


def test_bank_capacity_validated():
    with pytest.raises(ValueError):
        memory.MemoryBank(capacity=0)
