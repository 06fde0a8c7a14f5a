"""Mini suite of bi-objective test problems.

Three functions, each the pairing of two shifted single-objective
components minimized over the search domain [-5, 5]^n:

* ``f1`` double sphere: ``f_alpha = |x - a|^2``, ``f_beta = |x - b|^2``.
  The Pareto set is the segment [a, b]; with d = |a - b| the front is
  ``t -> (t^2 d^2, (1 - t)^2 d^2)``, which normalizes to the curve
  ``sqrt(u) + sqrt(v) = 1`` with hypervolume exactly 5/6.
* ``f2`` sphere paired with a separable ellipsoid (condition 100).
* ``f3`` separable ellipsoid paired with a rotated ellipsoid.

Pairing two independently shifted components this way is this suite's own
convention; it is not meant to reproduce any external benchmark's
construction.  Each component attains 0 at its own shift, so the ideal is
exactly (0, 0) for every function; only ``f1`` has an analytic nadir
``(d^2, d^2)``.

Instances are generated by a splitmix64 recurrence (increment
0x9E3779B97F4A7C15, multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB) seeded from the problem key, so any
(function, instance, dimension) triple yields identical parameters on
every platform.  The per-instance stream draws, in order: the shift ``a``
(n doubles in [-4, 4]), the shift ``b`` (n doubles), and for ``f3`` the
n - 1 plane-rotation angles.  Doubles take the top 53 bits of each output
word.

Objectives add Python-float terms in a fixed order, so ``f1``'s bits are the
same on every IEEE binary64 platform; ``f2`` and ``f3`` also depend on libm
``pow``, ``cos`` and ``sin`` through their weights and rotation.  Each
``SuiteFunction`` writes that order out once, on its first ``evaluate``, as
a straight-line Python function with its constants inlined (``_kernel``):
the same operations in the same order on the same doubles, since ``repr``
of a finite double parses back to that double, so the bits are those of the
loops the class docstring describes, without their per-call overhead.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from bibench.core import ObjectiveVector

__all__ = [
    "DIMENSIONS",
    "DOMAIN_LOWER",
    "DOMAIN_UPPER",
    "FUNCTION_IDS",
    "INSTANCE_IDS",
    "SplitMix64",
    "SuiteFunction",
    "analytic_front_oracle",
    "enumerate_problems",
    "get_function",
    "mix_seed",
    "problem_id",
]

FUNCTION_IDS = ("f1", "f2", "f3")
DIMENSIONS = (2, 3, 5, 10)
INSTANCE_IDS = tuple(range(1, 11))

DOMAIN_LOWER = -5.0
DOMAIN_UPPER = 5.0
_SHIFT_LOWER = -4.0
_SHIFT_UPPER = 4.0
ELLIPSOID_CONDITION = 100.0

_FLOAT = frozenset((float,))  # the one item type evaluate reads a list with as it is

_MASK64 = (1 << 64) - 1
_SPLITMIX_INCREMENT = 0x9E3779B97F4A7C15
_SPLITMIX_MULT_1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MULT_2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator behind instance parameters."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _SPLITMIX_INCREMENT) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _SPLITMIX_MULT_1) & _MASK64
        z = ((z ^ (z >> 27)) * _SPLITMIX_MULT_2) & _MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def mix_seed(*parts: int) -> int:
    """Fold integers into one 64-bit seed by chaining the splitmix mixer."""
    seed = 0
    for p in parts:
        seed = SplitMix64(seed ^ (p & _MASK64)).next_u64()
    return seed


_FUNCTION_INDEX = {fid: k + 1 for k, fid in enumerate(FUNCTION_IDS)}


def _instance_stream(function_id: str, instance_id: int, dimension: int) -> SplitMix64:
    return SplitMix64(mix_seed(_FUNCTION_INDEX[function_id], instance_id, dimension))


def _check_selection(functions, dimensions, instances) -> None:
    """Raise ``ValueError`` for an empty axis or a value the suite lacks."""
    for axis, values, known in (
        ("function id", functions, FUNCTION_IDS),
        ("dimension", dimensions, DIMENSIONS),
        ("instance", instances, INSTANCE_IDS),
    ):
        if not values:
            raise ValueError(f"no {axis} selected")
        for value in values:
            if value not in known:
                raise ValueError(f"unknown {axis} {value!r}, expected one of {known}")


def _conditioning(dimension: int) -> tuple[float, ...]:
    return tuple(ELLIPSOID_CONDITION ** (k / (dimension - 1)) for k in range(dimension))


def _kernel(fn: SuiteFunction) -> Callable[[list], ObjectiveVector]:
    """``fn``'s objectives as one straight-line function of a list of ``n``
    floats: the operations of the loops ``SuiteFunction`` describes, in their
    order, with every shift, weight, cosine and sine written in by ``repr``,
    which gives back the same double."""
    n, fid = fn.dimension, fn.function_id
    a, b, w = ([repr(v) for v in values] for values in (fn._alpha, fn._beta, fn._weights))
    body = [f"{', '.join(f'x{i}' for i in range(n))} = x", "fa = fb = 0.0"]
    if fid == "f3":
        body.append(f"carry = x0 - {b[0]}")  # coordinate j of P_{j-1} ... P_0 zb
        for j, (c, s) in enumerate(fn._planes):
            c, s = repr(c), repr(s)
            body += [f"za = x{j} - {a[j]}", f"fa += {w[j]} * (za * za)",
                     f"zb = x{j + 1} - {b[j + 1]}",
                     f"r = {c} * carry - {s} * zb", f"carry = {s} * carry + {c} * zb",
                     f"fb += {w[j]} * (r * r)"]
        body += [f"za = x{n - 1} - {a[-1]}", f"fa += {w[-1]} * (za * za)",
                 f"fb += {w[-1]} * (carry * carry)"]
    else:
        for i in range(n):
            body += [f"za = x{i} - {a[i]}", f"zb = x{i} - {b[i]}", "fa += za * za",
                     "fb += zb * zb" if fid == "f1" else f"fb += {w[i]} * (zb * zb)"]
    source = "def objectives(x):\n" + "".join(f"    {line}\n" for line in body)
    source += "    return ObjectiveVector(fa, fb)\n"
    namespace = {"ObjectiveVector": ObjectiveVector}
    exec(compile(source, f"<objectives {fn.key}>", "exec"), namespace)
    return namespace["objectives"]


class SuiteFunction:
    """One problem instance: a pair of component objectives sharing a key.

    ``evaluate`` is pure and does not count evaluations; callers own the
    evaluation counter.  An objective adds ``w_i * (z_i * z_i)`` (``z_i * z_i``
    for a sphere) for ``i = 0, 1, ...`` in turn, one rounding per operation.
    ``f3``'s rotation applies plane rotations ``P_0`` to ``P_{n-2}`` of
    coordinates ``(j, j + 1)``; after ``P_j`` coordinate ``j`` is final and
    is added at once, so the rotation is O(n) with no dense matrix.  ``f3``
    takes both objectives' terms of coordinate ``j`` in one pass over the
    planes, then the last coordinate's.

    The first ``evaluate`` compiles those loops, unrolled for this instance,
    into one function (``_kernel``), kept as ``_objectives``; building an
    instance compiles nothing, and pickling drops the compiled function,
    which the copy compiles again when it first evaluates.

    A ``list`` of exactly ``dimension`` items, each exactly a ``float``, is
    read as it is; any other ``x`` goes through ``np.asarray(x, dtype=float)``
    first, which gives the same floats for such a list.
    """

    def __init__(self, function_id: str, instance_id: int, dimension: int) -> None:
        _check_selection((function_id,), (dimension,), (instance_id,))
        self.function_id = function_id
        self.instance_id = instance_id
        self.dimension = dimension

        stream = _instance_stream(function_id, instance_id, dimension)
        span = _SHIFT_UPPER - _SHIFT_LOWER
        self.optimum_alpha = np.array(
            [_SHIFT_LOWER + span * stream.next_double() for _ in range(dimension)]
        )
        self.optimum_beta = np.array(
            [_SHIFT_LOWER + span * stream.next_double() for _ in range(dimension)]
        )
        self._alpha = tuple(self.optimum_alpha.tolist())
        self._beta = tuple(self.optimum_beta.tolist())
        self._d2 = 0.0
        for a, b in zip(self._alpha, self._beta):
            self._d2 += (a - b) * (a - b)
        if self._d2 <= 0.0:
            raise ValueError(f"degenerate instance: identical shifts for {self.key}")

        self._weights = _conditioning(dimension)
        # (cos, sin) of each plane rotation P_j; empty except for f3.
        self._planes = tuple(
            (math.cos(theta), math.sin(theta))
            for theta in (math.tau * stream.next_double() for _ in range(dimension - 1))
        ) if function_id == "f3" else ()

    _objectives = cached_property(_kernel)  # compiled on the first evaluate

    def __getstate__(self) -> dict:
        """The instance without its compiled kernel, which cannot be pickled."""
        state = self.__dict__.copy()
        state.pop("_objectives", None)
        return state

    @property
    def key(self) -> str:
        return problem_id(self.function_id, self.dimension, self.instance_id)

    @property
    def analytic_ideal(self) -> ObjectiveVector:
        """Exact for every suite function: each component attains 0."""
        return ObjectiveVector(0.0, 0.0)

    @property
    def analytic_nadir(self) -> ObjectiveVector | None:
        """Exact only where the Pareto set is known (``f1``)."""
        if self.function_id == "f1":
            return ObjectiveVector(self._d2, self._d2)
        return None

    def evaluate(self, x: Sequence[float]) -> ObjectiveVector:
        if type(x) is list and len(x) == self.dimension and _FLOAT.issuperset(map(type, x)):
            xs = x
        else:
            arr = np.asarray(x, dtype=float)
            if arr.shape != (self.dimension,):
                raise ValueError(
                    f"{self.key} expects a vector of length {self.dimension}, "
                    f"got shape {arr.shape}"
                )
            xs = arr.tolist()
        return self._objectives(xs)


def analytic_front_oracle(fn: SuiteFunction, t: float) -> ObjectiveVector:
    """Closed-form Pareto-front point of ``f1`` at parameter ``t`` in [0, 1].

    The Pareto set is ``a + t (b - a)``, giving objectives
    ``(t^2 d^2, (1 - t)^2 d^2)``.  Raises for functions without an
    analytic front.
    """
    if fn.function_id != "f1":
        raise ValueError(f"{fn.function_id} has no analytic front oracle")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"front parameter must lie in [0, 1], got {t}")
    d2 = fn._d2
    return ObjectiveVector(t * t * d2, (1.0 - t) * (1.0 - t) * d2)


def problem_id(function_id: str, dimension: int, instance_id: int) -> str:
    """Canonical ``<function>:<dimension>:<instance>`` identifier."""
    return f"{function_id}:{dimension}:{instance_id}"


def get_function(function_id: str, instance_id: int, dimension: int) -> SuiteFunction:
    return SuiteFunction(function_id, instance_id, dimension)


def enumerate_problems(
    functions: Sequence[str] | None = None,
    dimensions: Sequence[int] | None = None,
    instances: Sequence[int] | None = None,
) -> tuple[tuple[str, int, int], ...]:
    """All (function_id, dimension, instance_id) triples of the mini suite,
    optionally restricted, in deterministic order; a repeated value counts
    once, and an empty selection on any axis is a ``ValueError``."""
    functions = tuple(dict.fromkeys(functions)) if functions is not None else FUNCTION_IDS
    dimensions = tuple(dict.fromkeys(dimensions)) if dimensions is not None else DIMENSIONS
    instances = tuple(dict.fromkeys(instances)) if instances is not None else INSTANCE_IDS
    _check_selection(functions, dimensions, instances)
    return tuple(
        (fid, dim, inst) for fid in functions for dim in dimensions for inst in instances
    )
