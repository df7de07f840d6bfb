"""Replay memory: a per-session bank of feature vectors with score-ordered
uniform selection.

Selection sorts a session's training scores and keeps the items at ranks
floor(k * (n - 1) / (m - 1)) for k = 0..m-1, so the kept scores cover the
whole observed range, extremes included. Stored features are updated in
place exactly once per session transition by the caller-supplied
projection; a guard rejects a second refresh for the same session.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DuplicateSessionError(ValueError):
    pass


class EmptyBankError(ValueError):
    pass


class RefreshGuardError(RuntimeError):
    pass


@dataclass
class FeatureRecord:
    feature: np.ndarray
    score: float
    session: int
    sample_id: str


@dataclass
class MemoryBank:
    capacity: int
    entries: list[FeatureRecord] = field(default_factory=list)
    refresh_epoch: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")

    @property
    def size(self) -> int:
        return len(self.entries)

    def sessions(self) -> set[int]:
        return {r.session for r in self.entries}

    def features(self) -> np.ndarray:
        return np.stack([r.feature for r in self.entries])

    def scores(self) -> np.ndarray:
        return np.array([r.score for r in self.entries], dtype=np.float64)


def ous_select(scores, m: int, ids=None) -> list[int]:
    """Indices of the m rank-uniform items after sorting by score.

    Ties sort by id. m = 1 picks the median rank; m >= 2 always includes
    the minimum and maximum. Returned indices are in ascending score order.
    """
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = y.size
    if n == 0:
        raise ValueError("cannot select from an empty score list")
    if m < 1:
        raise ValueError(f"selection size must be >= 1, got {m}")
    if m > n:
        m = n
    keys = list(range(n)) if ids is None else list(ids)
    if len(keys) != n:
        raise ValueError(f"{len(keys)} ids for {n} scores")
    order = sorted(range(n), key=lambda i: (y[i], keys[i]))
    if m == 1:
        ranks = [(n - 1) // 2]
    else:
        ranks = [k * (n - 1) // (m - 1) for k in range(m)]
    return [order[r] for r in ranks]


def random_select(scores, m: int, rng: np.random.Generator) -> list[int]:
    """Uniform selection without replacement, output in score order."""
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = y.size
    if n == 0:
        raise ValueError("cannot select from an empty score list")
    m = min(m, n)
    picked = rng.choice(n, size=m, replace=False)
    return sorted(picked.tolist(), key=lambda i: y[i])


def store_session(bank: MemoryBank, features, scores, ids, session: int, *,
                  rng: np.random.Generator | None = None,
                  random_sampling: bool = False) -> list[int]:
    """Select and append min(capacity, n) records for one finished session."""
    if session in bank.sessions():
        raise DuplicateSessionError(f"session {session} already stored")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    ids = list(ids)
    if x.ndim != 2 or x.shape[0] != y.size or len(ids) != y.size:
        raise ValueError(f"inconsistent store: {x.shape} features, "
                         f"{y.size} scores, {len(ids)} ids")
    if random_sampling:
        if rng is None:
            raise ValueError("random sampling needs a generator")
        chosen = random_select(y, bank.capacity, rng)
    else:
        chosen = ous_select(y, bank.capacity, ids=ids)
    for i in chosen:
        bank.entries.append(FeatureRecord(feature=x[i].copy(), score=float(y[i]),
                                          session=session, sample_id=ids[i]))
    return chosen


def sample_replay(bank: MemoryBank, b1: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Draw min(b1, size) records uniformly without replacement."""
    if bank.size == 0:
        raise EmptyBankError("replay draw from an empty bank")
    idx = rng.choice(bank.size, size=min(b1, bank.size), replace=False)
    feats = np.stack([bank.entries[i].feature for i in idx])
    scores = np.array([bank.entries[i].score for i in idx], dtype=np.float64)
    sample_ids = [bank.entries[i].sample_id for i in idx]
    return feats, scores, sample_ids


def refresh(bank: MemoryBank, apply_fn, epoch: int) -> None:
    """Rewrite every stored feature as ``apply_fn(features)`` exactly once
    per session transition. Scores, session tags and ids are untouched."""
    if epoch <= bank.refresh_epoch:
        raise RefreshGuardError(
            f"bank already refreshed at session {bank.refresh_epoch}; "
            f"refusing a second refresh for session {epoch}")
    if bank.size > 0:
        updated = np.asarray(apply_fn(bank.features()), dtype=np.float64)
        if updated.shape != (bank.size, bank.entries[0].feature.size):
            raise ValueError(f"refresh changed feature shape to {updated.shape}")
        if not np.isfinite(updated).all():
            raise ValueError("refresh produced non-finite features")
        for rec, row in zip(bank.entries, updated):
            rec.feature = row.copy()
    bank.refresh_epoch = epoch
