"""Target-grid and runtime-record tests."""

from __future__ import annotations

import math
import random

import pytest

from bibench.core import ObjectiveVector, ProblemSpec
from bibench.targets import RuntimeRecord, absolute_targets, precision_grid


def _spec(i_ref: float = -0.8) -> ProblemSpec:
    return ProblemSpec(
        function_id=1,
        instance_id=1,
        dimension=2,
        ideal=ObjectiveVector(0.0, 0.0),
        nadir=ObjectiveVector(1.0, 1.0),
        i_ref=i_ref,
        refset_version="0" * 16,
    )


def test_grid_shape() -> None:
    grid = precision_grid()
    assert len(grid) == 58
    assert grid[6] == 0.0
    assert grid[-1] == 1.0
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_grid_composition() -> None:
    grid = precision_grid()
    negatives = [g for g in grid if g < 0]
    positives = [g for g in grid if g > 0]
    assert len(negatives) == 6 and len(positives) == 51
    assert negatives[0] == -1e-4
    assert negatives[-1] == -1e-5
    assert positives[0] == 1e-5
    assert positives[-1] == 1.0


def test_grid_bit_reproducible() -> None:
    grid = precision_grid()
    # Each magnitude comes from a single power evaluation of an integer-tenth
    # exponent; recomputing must give bitwise-identical floats.
    expect_neg = [-(10.0 ** (k / 10.0)) for k in (-40, -42, -44, -46, -48, -50)]
    expect_pos = [10.0 ** (k / 10.0) for k in range(-50, 1)]
    assert list(grid) == expect_neg + [0.0] + expect_pos
    assert list(precision_grid()) == list(grid)


def test_absolute_targets_examples() -> None:
    targets = absolute_targets(_spec(-0.8))
    grid = precision_grid()
    assert len(targets) == 58
    assert targets[6] == -0.8
    assert targets[-1] == pytest.approx(0.2)
    assert list(targets) == [-0.8 + g for g in grid]
    idx = grid.index(1e-5) - 2  # the -1e-5 element sits two before +1e-5
    assert grid[idx + 1] == 0.0
    assert targets[idx] == -0.8 + -1e-5


def test_record_worked_example() -> None:
    rec = RuntimeRecord([-0.5, 0.2])
    rec.record(3, 0.1)
    assert rec.first_hit == [None, 3]
    rec.record(7, -0.6)
    assert rec.first_hit == [7, 3]
    assert rec.hit_count == 2
    assert None not in rec.first_hit


def test_record_requires_increasing_t() -> None:
    rec = RuntimeRecord([-0.5, 0.2])
    rec.record(3, 0.1)
    with pytest.raises(ValueError, match="increase strictly"):
        rec.record(3, 0.05)
    with pytest.raises(ValueError, match="increase strictly"):
        rec.record(2, 0.05)


@pytest.mark.parametrize("targets", [(-0.5, -0.5), (-0.25, -0.5), (-0.9, -0.1, -0.2)])
def test_record_refuses_targets_not_strictly_ascending(targets) -> None:
    with pytest.raises(ValueError, match="targets must be strictly ascending"):
        RuntimeRecord(targets)


def test_hits_never_change_once_set() -> None:
    rec = RuntimeRecord([0.0, 0.5])
    rec.record(2, 0.4)
    rec.record(9, -0.1)
    assert rec.first_hit == [9, 2]
    rec.record(10, -0.9)
    assert rec.first_hit == [9, 2]


def test_missed_targets_listed() -> None:
    rec = RuntimeRecord([-0.9, -0.2, 0.7])
    rec.record(4, 0.1)
    assert rec.first_hit == [None, None, 4]  # the two harder targets are missed
    assert rec.hit_count == 1


def _brute_force_first_hits(targets, trajectory):
    hits = []
    for target in targets:
        hit = None
        for t, value in trajectory:
            if value <= target:
                hit = t
                break
        hits.append(hit)
    return hits


def test_cursor_equals_brute_force_scan() -> None:
    grid = precision_grid()
    for seed in range(30):
        rng = random.Random(seed)
        i_ref = rng.uniform(-1.0, -0.1)
        targets = [i_ref + g for g in grid]
        # Build a non-increasing trajectory crossing the whole value range.
        value = rng.uniform(0.5, 2.0)
        trajectory = []
        t = 0
        while value > -1.0 and t < 300:
            t += rng.randint(1, 5)
            trajectory.append((t, value))
            if rng.random() < 0.3:
                value -= rng.uniform(0.0, 0.15)
        rec = RuntimeRecord(targets)
        for t, value in trajectory:
            rec.record(t, value)
        assert rec.first_hit == _brute_force_first_hits(targets, trajectory)
        assert 0 <= rec.hit_count <= 58


def test_infinite_value_hits_nothing() -> None:
    rec = RuntimeRecord(absolute_targets(_spec(-0.5)))
    rec.record(1, math.inf)
    assert rec.hit_count == 0
    assert rec.first_hit == [None] * 58
