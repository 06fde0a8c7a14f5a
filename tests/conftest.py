"""Shared test oracles, deliberately independent of the library internals,
and the one way tests build record and point columns.

The Monte Carlo hypervolume estimator checks box coverage point by point
against every archive member (no staircase assumptions), the
brute-force filter applies the dominance definition pairwise in O(n^2), and
``whole_text_table`` reads a table file's whole text line by line.
"""

from __future__ import annotations

from array import array
from pathlib import Path

import numpy as np
import pytest

from bibench import datalog
from bibench.core import NormalizedObjectives, RowError
from bibench.datalog import HeaderError, LogParseError, LogVersionError, RecordColumns
from bibench.refset import PointColumns


def record_columns(rows=()) -> RecordColumns:
    """``(eval_count, f_alpha, f_beta)`` rows as a run log's records."""
    rows = list(rows)
    return RecordColumns([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])


def point_columns(vectors=()) -> PointColumns:
    """Objects with ``f_alpha`` and ``f_beta``, such as ``ObjectiveVector``, as
    a reference set's points."""
    vectors = list(vectors)
    return PointColumns([y.f_alpha for y in vectors], [y.f_beta for y in vectors])


@pytest.fixture(scope="session")
def mc_hypervolume():
    """Monte Carlo ROI hypervolume oracle over uniform samples."""

    def _mc(points, n_samples: int = 1_000_000, seed: int = 0) -> float:
        us = np.array([max(p.u, 0.0) for p in points])
        vs = np.array([max(p.v, 0.0) for p in points])
        rng = np.random.default_rng(seed)
        covered = 0
        chunk = 200_000
        remaining = n_samples
        while remaining > 0:
            m = min(chunk, remaining)
            remaining -= m
            xs = rng.random(m)
            ys = rng.random(m)
            # A sample is dominated iff any point is <= it in both coordinates.
            hit = np.zeros(m, dtype=bool)
            for u, v in zip(us, vs):
                hit |= (u <= xs) & (v <= ys)
            covered += int(hit.sum())
        return covered / n_samples

    return _mc


@pytest.fixture(scope="session")
def brute_force_filter():
    """O(n^2) reference filter: keep first-seen points that no other
    distinct value weakly dominates."""

    def _coords(p) -> tuple[float, float]:
        if hasattr(p, "u"):
            return (p.u, p.v)
        return (p.f_alpha, p.f_beta)

    def _filter(points) -> list[NormalizedObjectives]:
        distinct: list[tuple[float, float]] = []
        seen: set[tuple[float, float]] = set()
        for p in points:
            key = _coords(p)
            if key not in seen:
                seen.add(key)
                distinct.append(key)
        return [
            NormalizedObjectives(u, v)
            for (u, v) in distinct
            if not any(
                ou <= u and ov <= v and (ou < u or ov < v) for (ou, ov) in distinct
            )
        ]

    return _filter


def whole_text_table(path, format, typecodes, keys, build):
    """``datalog.read_table``'s rules applied to the whole text of ``path``, one
    line at a time, with a line number kept per row: the reader before rows were
    streamed and converted a batch at a time, kept as its oracle."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"x").decode("ascii").splitlines())
        raise LogParseError(path, line, "non-ASCII byte") from None
    lines = [(n, line) for n, raw in enumerate(text.splitlines(), 1) if (line := raw.strip())]
    if not lines or lines[0][0] != 1 or not lines[0][1].startswith("% format="):
        raise LogVersionError(f"{path}: missing format declaration on line 1")
    declared = lines[0][1].partition("=")[2].strip()
    if declared != format:
        raise LogVersionError(f"{path}: unsupported format {declared!r}, expected {format}")
    header = {"format": (format, 1)}
    columns = [[] if code == "s" else array(code) for code in typecodes]
    convert = {"q": int, "d": float, "s": datalog._text}
    values, row_lines = None, []

    def converted_keys(number):
        absent = [k for k in keys if k not in header]
        if absent:
            raise LogParseError(path, number, f"missing header keys: {', '.join(absent)}")
        out = {}
        for key, fn in keys.items():
            try:
                out[key] = fn(header[key][0])
            except ValueError as exc:
                raise LogParseError(path, header[key][1], f"{key}: {exc}") from None
        return out

    for number, line in lines[1:]:
        if line.startswith("%"):
            if values is not None:
                raise LogParseError(path, number, "header line after the first row")
            key, sep, value = line[1:].partition("=")
            key = key.strip()
            if sep and key in header:
                raise LogParseError(path, number, f"header key {key} repeats line {header[key][1]}")
            if sep:
                header[key] = (value.strip(), number)
            continue
        if values is None:
            values = converted_keys(number)
        cells = line.split("\t")
        if len(cells) != len(typecodes):
            raise LogParseError(path, number, f"expected {len(typecodes)} columns, got {len(cells)}")
        try:
            for column, code, cell in zip(columns, typecodes, cells):
                column.append(convert[code](cell))
        except (ValueError, OverflowError) as exc:
            raise LogParseError(path, number, str(exc)) from None
        row_lines.append(number)
    if values is None:
        values = converted_keys(lines[-1][0])
    try:
        return build(values, *columns)
    except RowError as exc:
        raise LogParseError(path, row_lines[exc.row], str(exc)) from None
    except HeaderError as exc:
        raise LogParseError(path, header[exc.key][1], str(exc)) from None
    except ValueError as exc:
        raise LogParseError(path, max(n for _, n in header.values()), str(exc)) from None
