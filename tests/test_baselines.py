"""Baseline optimizer tests: budgets, determinism, black-box discipline."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from bibench.baselines import DEFAULT_WEIGHTS, random_search, scalarized_hill_climber


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
    (1025, (0.5,)),  # 1024 perturbations: exactly one full block
    (1026, (0.5,)),  # 1025 perturbations: a full block and one row
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
