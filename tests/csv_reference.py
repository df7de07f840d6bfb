"""The dataset CSV parsed row by row, as the reference for ``data.load_csv``.

This is how ``load_csv`` read every file before numpy's C reader took over
the files it can read exactly: ``csv.reader`` splits the records, ``float``
converts each value, and the first faulty line is named. ``load_csv`` must
give the same ids, scores, values and score range, or raise
``CsvFormatError`` with the same message, for any text. Two faults that
``csv.reader`` and the decoder raise themselves are typed here as well: a
field over ``csv.reader``'s limit names its line once the lines before it
are found faultless, and a byte the encoding cannot decode names its
position in the file.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from mreplay.data import CsvFormatError, Dataset, Sample


def load_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise CsvFormatError(f"{path}: {e}") from None
    return _parse_csv(io.StringIO(text, newline=""), path)


def _parse_csv(lines, path) -> Dataset:
    reader = csv.reader(lines)
    rows: list[list[str]] = []
    unread = None
    try:
        for row in reader:
            rows.append(row)
    except csv.Error as e:
        unread = CsvFormatError(f"{path}: line {reader.line_num}: {e}")
    if not rows:
        raise unread or CsvFormatError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 3 or header[0] != "id" or header[1] != "score":
        raise CsvFormatError(f"{path}: header must start with id,score; got {header[:3]}")
    prefix = header[2][:1]
    if prefix not in ("x", "f"):
        raise CsvFormatError(f"{path}: third column must be x0 or f0, got {header[2]!r}")
    width = len(header) - 2
    expected = [f"{prefix}{j}" for j in range(width)]
    if header[2:] != expected:
        raise CsvFormatError(f"{path}: malformed value columns {header[2:]}")
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
    scores = table[:, 0].tolist()
    samples = tuple(Sample(sample_id=sid, x=x, score=score)
                    for sid, score, x in zip(ids, scores, table[:, 1:]))
    return Dataset(samples=samples, input_width=width,
                   score_range=(min(scores), max(scores)),
                   feature_mode=(prefix == "f"))
