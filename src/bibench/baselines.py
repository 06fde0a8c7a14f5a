"""Built-in baseline optimizers.

Baselines are strictly black-box: they receive an ``evaluate(x) ->
(f_alpha, f_beta)`` callable, the dimension, a budget, and a seeded
random generator.  They never see reference sets, ideal/nadir points, or
archive state.

Random numbers are drawn in blocks of up to ``_BLOCK`` rows.  numpy's
``Generator`` fills a ``(k, n)`` array in C order from one stream, so every
submitted point, and the generator's state afterwards, are exactly those
of one ``n``-vector draw per evaluation, whatever the block size.  Each
point is handed to ``evaluate`` as a new list of Python floats, which
``evaluate`` may keep.  The hill climber's step ``x_i + sigma * s_i`` is
one multiply and one add per coordinate, the bits numpy's elementwise
``x + sigma * s`` gives.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Sequence

import numpy as np

from bibench.suite import DOMAIN_LOWER, DOMAIN_UPPER

__all__ = ["DEFAULT_WEIGHTS", "random_search", "scalarized_hill_climber"]

EvaluateFn = Callable[[list[float]], tuple[float, float]]

# The registered hill-climber baseline scans eleven scalarization weights.
DEFAULT_WEIGHTS = tuple(k / 10.0 for k in range(11))
_INITIAL_STEP = 2.0  # the hill climber's step size at each restart
_BLOCK = 128  # rows per random draw: bounds memory at _BLOCK lists of dimension floats


def _rows(draw: Callable[..., np.ndarray], count: int, dimension: int) -> Iterator[list[float]]:
    """``count`` rows of ``dimension`` numbers from ``draw(size=...)``, as
    lists of floats, drawn ``_BLOCK`` rows at a time."""
    while count > 0:
        rows = min(_BLOCK, count)
        count -= rows
        yield from draw(size=(rows, dimension)).tolist()


def random_search(
    evaluate: EvaluateFn,
    dimension: int,
    budget: int,
    rng: np.random.Generator,
) -> None:
    """Uniform random sampling of the search domain."""
    uniform = functools.partial(rng.uniform, DOMAIN_LOWER, DOMAIN_UPPER)
    for x in _rows(uniform, budget, dimension):
        evaluate(x)


def scalarized_hill_climber(
    evaluate: EvaluateFn,
    dimension: int,
    budget: int,
    rng: np.random.Generator,
    weights: Sequence[float] = DEFAULT_WEIGHTS,
) -> None:
    """(1+1) hill climber on ``w * f_alpha + (1 - w) * f_beta``.

    The budget is split evenly over the weight grid; each weight run
    restarts from a fresh uniform point and adapts its step size with a
    1/5-success rule.
    """
    weights = tuple(weights)
    share, leftover = divmod(budget, len(weights))
    for index, w in enumerate(weights):
        steps = share + (1 if index < leftover else 0)
        if steps == 0:
            continue
        x = rng.uniform(DOMAIN_LOWER, DOMAIN_UPPER, dimension).tolist()
        f_alpha, f_beta = evaluate(x)
        w_beta = 1.0 - w
        score = w * f_alpha + w_beta * f_beta
        sigma = _INITIAL_STEP
        for step in _rows(rng.standard_normal, steps - 1, dimension):
            candidate = [xi + sigma * si for xi, si in zip(x, step)]
            f_alpha, f_beta = evaluate(candidate)
            trial = w * f_alpha + w_beta * f_beta
            if trial <= score:
                x, score = candidate, trial
                sigma *= 1.5
            else:
                sigma *= 1.5**-0.25
