"""Shared test oracles, deliberately independent of the library internals,
and the one way tests build record and point columns.

The Monte Carlo hypervolume estimator checks box coverage point by point
against every archive member (no staircase assumptions), and the
brute-force filter applies the dominance definition pairwise in O(n^2).
"""

from __future__ import annotations

import numpy as np
import pytest

from bibench.core import NormalizedObjectives
from bibench.datalog import RecordColumns
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
