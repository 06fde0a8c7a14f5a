"""Baseline optimizer tests: budgets, determinism, black-box discipline."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from bibench import baselines
from bibench.baselines import DEFAULT_WEIGHTS, random_search, scalarized_hill_climber
from bibench.runner import BOOTSTRAP_WEIGHTS
from bibench.suite import get_function


class _Recorder:
    """Counts evaluations and records every queried point."""

    def __init__(self, objective=None):
        self.calls: list[np.ndarray] = []
        self._objective = objective or (lambda x: (float(x @ x), float((x - 1) @ (x - 1))))

    def __call__(self, x):
        self.calls.append(np.array(x, copy=True))
        return self._objective(np.asarray(x, dtype=float))


def test_default_weights_grid() -> None:
    assert DEFAULT_WEIGHTS == tuple(k / 10 for k in range(11))
    assert len(DEFAULT_WEIGHTS) == 11


def test_random_search_spends_exact_budget_in_domain() -> None:
    rec = _Recorder()
    random_search(rec, dimension=3, budget=250, rng=np.random.default_rng(0))
    assert len(rec.calls) == 250
    stacked = np.stack(rec.calls)
    assert stacked.shape == (250, 3)
    assert np.all(stacked >= -5.0) and np.all(stacked <= 5.0)


def test_random_search_deterministic_per_seed() -> None:
    a, b = _Recorder(), _Recorder()
    random_search(a, 2, 50, np.random.default_rng(42))
    random_search(b, 2, 50, np.random.default_rng(42))
    assert all(np.array_equal(p, q) for p, q in zip(a.calls, b.calls))
    c = _Recorder()
    random_search(c, 2, 50, np.random.default_rng(43))
    assert not all(np.array_equal(p, q) for p, q in zip(a.calls, c.calls))


def test_hill_climber_spends_exact_budget() -> None:
    for budget in (1, 10, 11, 37, 110, 250):
        rec = _Recorder()
        scalarized_hill_climber(rec, dimension=2, budget=budget,
                                rng=np.random.default_rng(1))
        assert len(rec.calls) == budget


def test_hill_climber_splits_budget_over_weights() -> None:
    # 11 weights, budget 23 -> shares 3,3,2,2,... (leftover to the first).
    starts = []

    class _StartSpotter(_Recorder):
        def __call__(self, x):
            if len(self.calls) in starts_at:
                starts.append(np.array(x))
            return super().__call__(x)

    starts_at = {0, 3, 6, 8}  # first evaluation of weights 0, 1, 2, 3
    rec = _StartSpotter()
    scalarized_hill_climber(rec, dimension=2, budget=23,
                            rng=np.random.default_rng(5))
    assert len(rec.calls) == 23
    # Fresh uniform restarts stay inside the domain box.
    for s in starts:
        assert np.all(np.abs(s) <= 5.0)


def test_hill_climber_improves_scalarized_score() -> None:
    rng = np.random.default_rng(3)
    rec = _Recorder()
    scalarized_hill_climber(rec, dimension=4, budget=110, rng=rng,
                            weights=(0.5,))
    scores = [0.5 * a + 0.5 * b for a, b in
              ((float(x @ x), float((x - 1) @ (x - 1))) for x in rec.calls)]
    # The best-so-far sequence must reach below the initial score.
    assert min(scores) < scores[0]


def test_hill_climber_single_weight_uses_whole_budget() -> None:
    rec = _Recorder()
    scalarized_hill_climber(rec, dimension=2, budget=30,
                            rng=np.random.default_rng(7), weights=(0.3,))
    assert len(rec.calls) == 30


def test_baselines_see_only_the_evaluate_callable() -> None:
    """The evaluate callable is the entire interface: objectives that ignore
    geometry entirely still work (no reliance on suite structure)."""
    flat = _Recorder(objective=lambda x: (1.0, 1.0))
    random_search(flat, 2, 20, np.random.default_rng(0))
    scalarized_hill_climber(flat, 2, 20, np.random.default_rng(0))
    assert len(flat.calls) == 40


def test_budget_smaller_than_weight_count() -> None:
    rec = _Recorder()
    scalarized_hill_climber(rec, dimension=2, budget=4,
                            rng=np.random.default_rng(9))
    # Only the first four weights get one evaluation each.
    assert len(rec.calls) == 4


# Reference loops: one RNG call per evaluation, as the baselines drew their
# numbers before they drew them in blocks.  The block draws must submit
# exactly these points and leave the generator in exactly this state.

def _per_draw_random_search(evaluate, dimension, budget, rng):
    for _ in range(budget):
        evaluate(rng.uniform(-5.0, 5.0, dimension))


def _per_draw_hill_climber(evaluate, dimension, budget, rng, weights=DEFAULT_WEIGHTS):
    weights = tuple(weights)
    share, leftover = divmod(budget, len(weights))
    for index, w in enumerate(weights):
        steps = share + (1 if index < leftover else 0)
        if steps == 0:
            continue
        x = rng.uniform(-5.0, 5.0, dimension)
        f_alpha, f_beta = evaluate(x)
        score = w * f_alpha + (1.0 - w) * f_beta
        sigma = 2.0
        for _ in range(steps - 1):
            candidate = x + sigma * rng.standard_normal(dimension)
            f_alpha, f_beta = evaluate(candidate)
            trial = w * f_alpha + (1.0 - w) * f_beta
            if trial <= score:
                x, score = candidate, trial
                sigma *= 1.5
            else:
                sigma *= 1.5**-0.25


def _assert_same_draws(baseline, reference, dimension, budget, **kwargs) -> None:
    got, want = _Recorder(), _Recorder()
    rng, reference_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    baseline(got, dimension, budget, rng, **kwargs)
    reference(want, dimension, budget, reference_rng, **kwargs)
    assert len(got.calls) == len(want.calls) == budget
    assert all(np.array_equal(p, q) for p, q in zip(got.calls, want.calls))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("dimension", [2, 10])
@pytest.mark.parametrize("budget", [1, 1023, 1024, 1025, 3000])
def test_random_search_block_draws_match_per_draw_loop(budget, dimension) -> None:
    _assert_same_draws(random_search, _per_draw_random_search, dimension, budget)


@pytest.mark.parametrize("dimension", [2, 10])
@pytest.mark.parametrize(("budget", "weights"), [
    (1025, (0.5,)),  # 1024 perturbations: whole blocks
    (1026, (0.5,)),  # 1025 perturbations: whole blocks and one row
    (3000, DEFAULT_WEIGHTS),
])
def test_hill_climber_block_draws_match_per_draw_loop(budget, weights, dimension) -> None:
    _assert_same_draws(scalarized_hill_climber, _per_draw_hill_climber,
                       dimension, budget, weights=weights)


def test_random_search_memory_is_bounded_by_block() -> None:
    # Drawing the whole budget at once would hold 200_000 x 10 doubles (16 MB).
    tracemalloc.start()
    try:
        random_search(lambda x: (0.0, 0.0), 10, 200_000, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# The numpy baselines the list path replaced, copied as its oracle: each point
# an ndarray row of a 1024-row block, each hill-climber step numpy's
# elementwise ``x + sigma * step``.

def _numpy_rows(draw, count, dimension):
    while count > 0:
        block = draw(size=(min(1024, count), dimension))
        count -= len(block)
        yield from block


def _numpy_random_search(evaluate, dimension, budget, rng):
    uniform = functools.partial(rng.uniform, -5.0, 5.0)
    for x in _numpy_rows(uniform, budget, dimension):
        evaluate(x)


def _numpy_hill_climber(evaluate, dimension, budget, rng, weights=DEFAULT_WEIGHTS):
    weights = tuple(weights)
    share, leftover = divmod(budget, len(weights))
    for index, w in enumerate(weights):
        steps = share + (1 if index < leftover else 0)
        if steps == 0:
            continue
        x = rng.uniform(-5.0, 5.0, dimension)
        f_alpha, f_beta = evaluate(x)
        score = w * f_alpha + (1.0 - w) * f_beta
        sigma = 2.0
        for step in _numpy_rows(rng.standard_normal, steps - 1, dimension):
            candidate = x + sigma * step
            f_alpha, f_beta = evaluate(candidate)
            trial = w * f_alpha + (1.0 - w) * f_beta
            if trial <= score:
                x, score = candidate, trial
                sigma *= 1.5
            else:
                sigma *= 1.5**-0.25


class _HexRecorder:
    """Records every submitted point's coordinates as ``float.hex`` strings and
    answers with a suite function's objectives."""

    def __init__(self, fn):
        self.points: list[list[str]] = []
        self._evaluate = fn.evaluate

    def __call__(self, x):
        self.points.append([float(v).hex() for v in x])
        y = self._evaluate(x)
        return y.f_alpha, y.f_beta


_ORACLE_PROBLEMS = [("f1", 2), ("f2", 3), ("f3", 10)]
_ORACLE_BUDGETS = [1, 5, 11, 12, 211, 3000]  # 211 is prime


def _assert_same_bits(baseline, oracle, function_id, dimension, budget, **kwargs) -> None:
    fn = get_function(function_id, instance_id=1, dimension=dimension)
    got, want = _HexRecorder(fn), _HexRecorder(fn)
    rng, oracle_rng = np.random.default_rng(budget), np.random.default_rng(budget)
    baseline(got, dimension, budget, rng, **kwargs)
    oracle(want, dimension, budget, oracle_rng, **kwargs)
    assert len(got.points) == budget
    assert got.points == want.points
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("budget", _ORACLE_BUDGETS)
@pytest.mark.parametrize(("function_id", "dimension"), _ORACLE_PROBLEMS)
def test_random_search_lists_match_the_numpy_baseline(
    monkeypatch, function_id, dimension, budget, block
) -> None:
    monkeypatch.setattr(baselines, "_BLOCK", block)
    _assert_same_bits(random_search, _numpy_random_search, function_id, dimension, budget)


@pytest.mark.parametrize("weights", [DEFAULT_WEIGHTS, BOOTSTRAP_WEIGHTS], ids=["default", "bootstrap"])
@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("budget", _ORACLE_BUDGETS)
@pytest.mark.parametrize(("function_id", "dimension"), _ORACLE_PROBLEMS)
def test_hill_climber_lists_match_the_numpy_baseline(
    monkeypatch, function_id, dimension, budget, block, weights
) -> None:
    monkeypatch.setattr(baselines, "_BLOCK", block)
    _assert_same_bits(scalarized_hill_climber, _numpy_hill_climber,
                      function_id, dimension, budget, weights=weights)
