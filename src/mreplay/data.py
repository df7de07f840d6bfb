"""Synthetic score-ordered datasets, grade splits, scaling and CSV I/O.

The generator draws a latent quality z ~ U[0, 1], sets the score to 100 z,
and maps z through a fixed random sinusoid mixture into input space. Each
grade band applies its own small affine change to the inputs, so the input
distribution drifts from session to session while the score scale stays
global. The split sorts by score and cuts T contiguous equal-count grade
bands; each band contributes a few-shot training split, the remainder is
held out, and the first band's held-out pool doubles as base-session
fine-tuning data.
"""
from __future__ import annotations

import csv
import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .models import make_rng

STREAM_SYNTH = 1
STREAM_SPLIT = 2
STREAM_NOISE = 3

_MIX_COMPONENTS = 6


class CsvFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Sample:
    sample_id: str
    x: np.ndarray
    score: float


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    input_width: int
    score_range: tuple[float, float]
    feature_mode: bool = False


# the least value of each numeric DataConfig field but n, whose least is T
DATA_BOUNDS = {"d_x": 1, "T": 2, "shots": 1, "noise_x": 0, "drift": 0, "label_noise": 0,
               "seed": 0}


@dataclass(frozen=True)
class DataConfig:
    n: int = 500
    d_x: int = 32
    T: int = 5
    shots: int = 10
    noise_x: float = 0.05
    drift: float = 0.3
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_config(self, "data", DATA_BOUNDS)
        if self.n < self.T:
            raise ValueError(f"data field 'n' is {self.n}, fewer than T={self.T}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# each field annotation but str's: the test of a value, and what a value must be
_FIELD_TYPES = {"int": (_is_int, "an int"), "bool": (lambda v: isinstance(v, bool), "a bool"),
                "float": (lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
                          "a finite float"),
                "tuple[int, ...]": (lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
                                    "a tuple of ints")}


def check_field(section: str, name: str, annotation: str, value, bound=None) -> None:
    """Raise a ``ValueError`` naming ``section`` and the field ``name``
    unless ``value`` is of the type ``annotation`` and not below ``bound``,
    or, for a str, one of the choices ``bound``."""
    if isinstance(bound, tuple):
        ok, want = value in bound, f"one of {bound}"
    else:
        test, want = _FIELD_TYPES[annotation]
        ok = test(value) and (bound is None or value >= bound)
        want += "" if bound is None else f" >= {bound}"
    if not ok:
        raise ValueError(f"{section} field {name!r} is {value!r}, not {want}")


def check_config(config, section: str, bounds: dict) -> None:
    """``check_field`` on each field of a config dataclass, whose annotations
    are strings, with its bound from ``bounds``; an accepted value is kept."""
    for f in fields(config):
        check_field(section, f.name, f.type, getattr(config, f.name), bounds.get(f.name))


def config_from_dict(cls, d: dict, what: str):
    """``cls(**d)`` for a config dataclass, whose ``__post_init__`` checks
    every field, after rejecting the fields it lacks; a JSON list becomes a
    tuple wherever the field's default is one."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} config section is {type(d).__name__!r}, not an object")
    known = {f.name: f.default for f in fields(cls)}
    unknown = set(d) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} config fields: {sorted(unknown)}")
    return cls(**{k: tuple(v) if isinstance(v, list) and isinstance(known[k], tuple)
                  else v for k, v in d.items()})


def generate_synthetic(cfg: DataConfig) -> Dataset:
    """Seed-deterministic synthetic dataset with per-grade input drift."""
    rng = make_rng(cfg.seed, STREAM_SYNTH)
    z = rng.uniform(0.0, 1.0, size=cfg.n)
    freqs = rng.uniform(0.5, 8.0, size=_MIX_COMPONENTS)
    amps = rng.normal(0.0, 1.0, size=(cfg.d_x, _MIX_COMPONENTS)) / np.sqrt(_MIX_COMPONENTS)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.d_x, _MIX_COMPONENTS))
    shift = rng.normal(0.0, 1.0, size=(cfg.T, cfg.d_x))
    gain = rng.uniform(-0.5, 0.5, size=(cfg.T, cfg.d_x))
    noise = rng.normal(0.0, 1.0, size=(cfg.n, cfg.d_x))
    samples = []
    for i in range(cfg.n):
        base = (amps * np.sin(freqs[None, :] * z[i] + phases)).sum(axis=1)
        g = min(int(z[i] * cfg.T), cfg.T - 1)
        x = base * (1.0 + cfg.drift * gain[g]) + cfg.drift * shift[g] \
            + cfg.noise_x * noise[i]
        samples.append(Sample(sample_id=f"s{i:05d}", x=x, score=100.0 * z[i]))
    return Dataset(samples=tuple(samples), input_width=cfg.d_x,
                   score_range=(0.0, 100.0))


@dataclass(frozen=True)
class SessionSplit:
    """A session's few-shot training samples and its held-out pool. After
    ``inject_label_noise`` the training samples carry their noisy labels and
    ``clean`` their true scores, which the test set is scored on."""

    session: int
    train: tuple[Sample, ...]
    held_out: tuple[Sample, ...]
    clean: tuple[float, ...] | None = None

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Inputs, scores (the labels training reads) and ids of ``train +
        held_out``, stacked on first use and kept, read-only, for the
        split's lifetime."""
        samples = self.train + self.held_out
        x = np.stack([s.x for s in samples])
        y = np.array([s.score for s in samples], dtype=np.float64)
        x.flags.writeable = y.flags.writeable = False
        return x, y, tuple(s.sample_id for s in samples)

    @cached_property
    def truths(self) -> np.ndarray:
        """The true scores of ``train + held_out``: ``arrays``' scores, or
        with ``clean`` those in place of the training samples' labels."""
        if self.clean is None:
            return self.arrays[1]
        y = np.array([*self.clean, *(s.score for s in self.held_out)], dtype=np.float64)
        y.flags.writeable = False
        return y


@dataclass(frozen=True)
class SessionPlan:
    sessions: tuple[SessionSplit, ...]
    shots: int
    input_width: int
    score_range: tuple[float, float]
    feature_mode: bool = False

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    @cached_property
    def memo(self) -> dict:
        """Scratch space for work that depends on the plan, kept for the
        plan's lifetime: ``trainer`` keeps each key's trained first session
        and the ranks of the test truths here. A ``replace``d plan starts
        with an empty one."""
        return {}

    @property
    def fine_tune_pool(self) -> tuple[Sample, ...]:
        """Base-session fine-tuning data: the first session's held-out pool."""
        return self.sessions[0].held_out

    def test_arrays(self, t: int, held_out_only: bool = False) -> tuple:
        """Inputs and true scores of session t's test set, ``train +
        held_out`` or, with ``held_out_only``, ``held_out`` alone, as views."""
        s = self.sessions[t - 1]
        cut = len(s.train) if held_out_only else 0
        return s.arrays[0][cut:], s.truths[cut:]

    def training_arrays(self, t: int) -> tuple:
        """Session t's training inputs, scores and ids, as views. Session 1
        adds its fine-tune pool, which is its held-out set: the whole split."""
        s = self.sessions[t - 1]
        return tuple(a[:None if t == 1 else len(s.train)] for a in s.arrays)


def grade_split(dataset: Dataset, T: int, shots: int, seed: int) -> SessionPlan:
    """Sort by score, cut T contiguous grade bands, draw few-shot splits."""
    n = len(dataset.samples)
    if n < T:
        raise ValueError(f"{n} samples cannot fill {T} sessions")
    rng = make_rng(seed, STREAM_SPLIT)
    order = sorted(dataset.samples, key=lambda s: (s.score, s.sample_id))
    base, rem = divmod(n, T)
    sessions = []
    start = 0
    for t in range(1, T + 1):
        size = base + (1 if t <= rem else 0)
        if size < shots:
            raise ValueError(f"grade {t} has {size} samples, fewer than "
                             f"shots={shots}")
        band = order[start:start + size]
        start += size
        picked = sorted(rng.choice(size, size=shots, replace=False).tolist())
        picked_set = set(picked)
        train = tuple(band[i] for i in picked)
        held = tuple(band[i] for i in range(size) if i not in picked_set)
        sessions.append(SessionSplit(session=t, train=train, held_out=held))
    return SessionPlan(sessions=tuple(sessions), shots=shots,
                       input_width=dataset.input_width,
                       score_range=dataset.score_range,
                       feature_mode=dataset.feature_mode)


@dataclass(frozen=True)
class ScoreScaler:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"degenerate score range [{self.lo}, {self.hi}]")

    def normalize(self, y):
        return (np.asarray(y, dtype=np.float64) - self.lo) / (self.hi - self.lo)

    def denormalize(self, y):
        return np.asarray(y, dtype=np.float64) * (self.hi - self.lo) + self.lo


def _map_plan_scores(plan: SessionPlan, fn) -> SessionPlan:
    """The plan with each split part's scores replaced by ``fn(scores,
    is_train)``, and the true scores of the training samples
    (``SessionSplit.clean``), if kept, by ``fn(scores, False)``."""
    def mapped(samples, is_train):
        scores = fn(np.array([s.score for s in samples], dtype=np.float64), is_train)
        return tuple(Sample(s.sample_id, s.x, v)
                     for s, v in zip(samples, scores.tolist()))

    def truths(clean):
        return None if clean is None else tuple(
            fn(np.array(clean, dtype=np.float64), False).tolist())

    return replace(plan, sessions=tuple(
        SessionSplit(s.session, mapped(s.train, True), mapped(s.held_out, False),
                     truths(s.clean))
        for s in plan.sessions))


def normalize_scores(plan: SessionPlan) -> tuple[SessionPlan, ScoreScaler]:
    """Map every score to [0, 1] with a scaler fitted on base-session data.

    The fit covers the first session's training and fine-tune scores,
    extended by the dataset's declared score range so later (higher) grades
    stay inside [0, 1].
    """
    basis = [s.score for s in plan.sessions[0].train]
    basis += [s.score for s in plan.fine_tune_pool]
    basis += [plan.score_range[0], plan.score_range[1]]
    lo, hi = min(basis), max(basis)
    if hi - lo < 1e-12:
        raise ValueError(f"degenerate score range [{lo}, {hi}] in base session")
    scaler = ScoreScaler(lo=lo, hi=hi)
    normed = _map_plan_scores(plan, lambda y, _: scaler.normalize(y))
    score_range = tuple(scaler.normalize(plan.score_range).tolist())
    return replace(normed, score_range=score_range), scaler


def inject_label_noise(plan: SessionPlan, intensity: float, seed: int) -> SessionPlan:
    """Add gaussian noise to training-split scores only, in original units,
    clamped to the declared score range. Held-out scores are untouched, and
    the test sets keep the true scores (``SessionSplit.clean``)."""
    rng = make_rng(seed, STREAM_NOISE)
    lo, hi = plan.score_range

    def noisy(y: np.ndarray, is_train: bool) -> np.ndarray:
        if not is_train:
            return y
        return np.clip(y + intensity * rng.normal(size=y.size), lo, hi)

    kept = tuple(s if s.clean is not None else replace(s, clean=tuple(r.score for r in s.train))
                 for s in plan.sessions)
    return _map_plan_scores(replace(plan, sessions=kept), noisy)


# ------------------------------------------------------------------- csv io


@contextmanager
def atomic_write(path, newline=None, binary=False):
    """Open a temporary file beside ``path`` for writing text, or bytes if
    ``binary``. On a clean exit it replaces ``path`` in one step; on an
    error it is removed, and whatever ``path`` held before stays intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_csv(dataset: Dataset, path) -> None:
    prefix = "f" if dataset.feature_mode else "x"
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "score"] + [f"{prefix}{j}" for j in range(dataset.input_width)])
        for s in dataset.samples:
            w.writerow([s.sample_id, repr(float(s.score))] + [repr(float(v)) for v in s.x])


def load_csv(path) -> Dataset:
    """Read a dataset; the header decides raw (x0..) vs feature (f0..) mode.

    The values are read by numpy's C reader in one pass. A file it cannot
    read, or could read differently from ``csv.reader`` (blank lines, a
    quoted field over several lines, lone carriage returns, an overlong
    field), and any file with a fault go through the row loop, which gives
    the same result and names the first faulty line.

    The dataset is shared, as ``parse_csv`` describes: a later call on
    equal bytes returns this same object, its values are read-only (writing
    to ``sample.x`` raises ``ValueError``), and the process keeps it until
    a file with other bytes is parsed."""
    return parse_csv(Path(path).read_bytes(), path)


# each kind of artifact -> the bytes last read as that kind, the object
# they were read against, and what they gave; see ``kept``
_KEPT: dict[str, tuple] = {}


def kept(kind: str, raw: bytes, read, against=None):
    """``read()``: what the bytes ``raw`` of an artifact of ``kind`` (a
    dataset, a split or a checkpoint) give, read against ``against``.

    The process keeps one value per kind, the last one read, beside the
    bytes it was read from: equal bytes of that kind, under any path, read
    against that same object, give that same value again without ``read``.
    Other bytes replace it. A ``read`` that raises raises on every call and
    leaves the kept value as it was. A kept value is shared by every caller
    that gets it, so none may change it."""
    entry = _KEPT.get(kind)
    # bytes compare by length, then by memcmp: far cheaper than hashing
    # them, for the cost of keeping one file's bytes per kind
    if entry is not None and entry[1] is against and entry[0] == raw:
        return entry[2]
    value = read()
    _KEPT[kind] = raw, against, value
    return value


def parse_csv(raw: bytes, path) -> Dataset:
    """``load_csv`` of ``raw``, the bytes of the CSV file ``path``, decoded
    as ``open`` would decode the file.

    The dataset is ``kept``: equal bytes, under any path, give the last
    dataset parsed again without a parse; its value table is read-only, so
    no caller can change it under another. A faulty file is parsed, and
    raises, on every call and leaves the kept dataset as it was."""
    return kept("dataset", raw, lambda: _parse_csv(raw, path))


def _parse_csv(raw: bytes, path) -> Dataset:
    try:
        text = io.TextIOWrapper(io.BytesIO(raw), newline="").read()
    except UnicodeDecodeError as e:
        raise CsvFormatError(f"{path}: {e}") from None
    prefix, ids, table = _read_table(text, path) or _read_rows(text, path)
    table.flags.writeable = False
    scores = table[:, 0].tolist()
    samples = tuple(Sample(sample_id=sid, x=x, score=score)
                    for sid, score, x in zip(ids, scores, table[:, 1:]))
    return Dataset(samples=samples, input_width=table.shape[1] - 1,
                   score_range=(min(scores), max(scores)),
                   feature_mode=(prefix == "f"))


def _check_header(header: list[str], path) -> tuple[str, int]:
    """The value-column prefix and width of a valid header."""
    if len(header) < 3 or header[0] != "id" or header[1] != "score":
        raise CsvFormatError(f"{path}: header must start with id,score; got {header[:3]}")
    prefix = header[2][:1]
    if prefix not in ("x", "f"):
        raise CsvFormatError(f"{path}: third column must be x0 or f0, got {header[2]!r}")
    width = len(header) - 2
    expected = [f"{prefix}{j}" for j in range(width)]
    if header[2:] != expected:
        raise CsvFormatError(f"{path}: malformed value columns {header[2:]}")
    return prefix, width


def _read_table(text: str, path):
    """The prefix, ids and (rows, 1 + width) score-and-value table of a
    faultless file whose every record is one line, read by ``np.loadtxt``;
    None for any other file, which the row loop then reads."""
    lines = text.removesuffix("\n").split("\n")
    head, body = lines[0].removesuffix("\r"), lines[1:]
    # a blank line is a row of no fields to csv.reader, which loadtxt skips
    # (and warns of when nothing is left); csv.reader rejects a field longer
    # than its limit, which loadtxt reads
    if not body or "" in body or "\r" in body or '"' in head or "\r" in head or \
            max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        prefix, width = _check_header(head.split(","), path)
    except CsvFormatError:
        return None
    try:
        rows = np.loadtxt(body, dtype=[("id", object), ("v", "f8", (width + 1,))],
                          delimiter=",", quotechar='"', comments=None, ndmin=1)
    except ValueError:
        return None
    ids = rows["id"].tolist()
    table = np.ascontiguousarray(rows["v"])
    # one row per line: no quoted field went on to the next line
    if len(ids) != len(body) or len(set(ids)) != len(ids) or \
            not np.isfinite(table).all():
        return None
    return prefix, ids, table


def _read_rows(text: str, path):
    """``_read_table``'s result for any file ``csv.reader`` reads, row by
    row with ``float``; a faulty file raises ``CsvFormatError`` naming its
    first faulty line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    # csv.reader's own fault, a field over its limit, is raised only once
    # the rows read before it are found faultless
    rows: list[list[str]] = []
    unread = None
    try:
        for row in reader:
            rows.append(row)
    except csv.Error as e:
        unread = CsvFormatError(f"{path}: line {reader.line_num}: {e}")
    if not rows:
        raise unread or CsvFormatError(f"{path}: empty file")
    prefix, width = _check_header(rows[0], path)
    ids: list[str] = []
    table = np.empty((len(rows) - 1, width + 1))  # each line's score, then its values
    seen: set[str] = set()

    def check_finite(lines: np.ndarray) -> None:
        # a non-finite value reports its line; the lines before it are fine
        bad = np.flatnonzero(~np.isfinite(lines).all(axis=1))
        if bad.size:
            raise CsvFormatError(f"{path}: line {bad[0] + 2}: non-finite value")

    for i, row in enumerate(rows[1:]):
        fault = None
        if len(row) != width + 2:
            fault = f"expected {width + 2} fields, got {len(row)}"
        elif row[0] in seen:
            fault = f"duplicate id {row[0]!r}"
        else:
            try:
                table[i] = [float(v) for v in row[1:]]
            except ValueError as e:
                fault = str(e)
        if fault is not None:
            check_finite(table[:i])
            raise CsvFormatError(f"{path}: line {i + 2}: {fault}")
        seen.add(row[0])
        ids.append(row[0])
    check_finite(table)
    if unread:
        raise unread
    if not ids:
        raise CsvFormatError(f"{path}: no data rows")
    return prefix, ids, table
