"""Test-suite function tests: instance determinism and analytic anchors."""

from __future__ import annotations

import functools
import math
import pickle
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from bibench.archive import staircase_hypervolume
from bibench.core import NormalizedObjectives, ObjectiveVector
from bibench.suite import (
    DIMENSIONS,
    FUNCTION_IDS,
    INSTANCE_IDS,
    SplitMix64,
    _instance_stream,
    analytic_front_oracle,
    enumerate_problems,
    get_function,
    mix_seed,
    problem_id,
)


def _all_functions():
    return [get_function(fid, inst, dim) for fid, dim, inst in enumerate_problems()]


def _dominates_raw(p: ObjectiveVector, q: ObjectiveVector) -> bool:
    """Dominance in raw objective space (same relation as after the
    order-preserving normalization): better-or-equal in both objectives and
    strictly better in one."""
    return (
        p.f_alpha <= q.f_alpha and p.f_beta <= q.f_beta
        and (p.f_alpha < q.f_alpha or p.f_beta < q.f_beta)
    )


def test_enumeration_covers_mini_suite() -> None:
    problems = enumerate_problems()
    assert len(problems) == 3 * 4 * 10
    assert FUNCTION_IDS == ("f1", "f2", "f3")
    assert DIMENSIONS == (2, 3, 5, 10)
    assert INSTANCE_IDS == tuple(range(1, 11))
    assert len(set(problems)) == 120
    restricted = enumerate_problems(functions=["f1"], dimensions=[2, 3], instances=[1])
    assert restricted == (("f1", 2, 1), ("f1", 3, 1))
    repeated = enumerate_problems(functions=["f1", "f1"], dimensions=[3, 2, 3], instances=[1])
    assert repeated == (("f1", 3, 1), ("f1", 2, 1))


def test_enumeration_validates_selection() -> None:
    with pytest.raises(ValueError, match="unknown function"):
        enumerate_problems(functions=["f9"])
    with pytest.raises(ValueError, match="dimension"):
        enumerate_problems(dimensions=[4])
    with pytest.raises(ValueError, match="instance"):
        enumerate_problems(instances=[0])
    with pytest.raises(ValueError, match="no function id selected"):
        enumerate_problems(functions=[])


def test_problem_id_format() -> None:
    assert problem_id("f2", 5, 7) == "f2:5:7"
    fn = get_function("f2", instance_id=7, dimension=5)
    assert fn.key == "f2:5:7"


def test_instances_are_deterministic() -> None:
    a = get_function("f3", instance_id=4, dimension=10)
    b = get_function("f3", instance_id=4, dimension=10)
    assert np.array_equal(a.optimum_alpha, b.optimum_alpha)
    assert np.array_equal(a.optimum_beta, b.optimum_beta)
    x = np.linspace(-3, 3, 10)
    assert a.evaluate(x) == b.evaluate(x)
    other = get_function("f3", instance_id=5, dimension=10)
    assert not np.array_equal(a.optimum_alpha, other.optimum_alpha)


def test_shifts_inside_inner_box() -> None:
    for fn in _all_functions():
        assert np.all(np.abs(fn.optimum_alpha) <= 4.0)
        assert np.all(np.abs(fn.optimum_beta) <= 4.0)


def test_double_sphere_anchor_points() -> None:
    fn = get_function("f1", instance_id=2, dimension=3)
    a, b = fn.optimum_alpha, fn.optimum_beta
    d2 = float(np.sum((a - b) ** 2))
    at_a = fn.evaluate(a)
    assert at_a.f_alpha == 0.0
    assert at_a.f_beta == pytest.approx(d2, rel=1e-12)
    at_b = fn.evaluate(b)
    assert at_b.f_beta == 0.0
    assert at_b.f_alpha == pytest.approx(d2, rel=1e-12)
    mid = fn.evaluate((a + b) / 2.0)
    assert mid.f_alpha == pytest.approx(d2 / 4.0, rel=1e-12)
    assert mid.f_beta == pytest.approx(d2 / 4.0, rel=1e-12)


def test_double_sphere_front_oracle() -> None:
    fn = get_function("f1", instance_id=1, dimension=2)
    a, b = fn.optimum_alpha, fn.optimum_beta
    d2 = float(np.sum((a - b) ** 2))
    assert analytic_front_oracle(fn, 0.0) == fn.evaluate(a)
    t_half = analytic_front_oracle(fn, 0.5)
    assert t_half.f_alpha == pytest.approx(d2 / 4, rel=1e-12)
    assert t_half.f_beta == pytest.approx(d2 / 4, rel=1e-12)
    # Oracle values agree with direct evaluation along the segment.
    for t in (0.1, 0.25, 0.9):
        direct = fn.evaluate(a + t * (b - a))
        oracle = analytic_front_oracle(fn, t)
        assert direct.f_alpha == pytest.approx(oracle.f_alpha, rel=1e-9)
        assert direct.f_beta == pytest.approx(oracle.f_beta, rel=1e-9)
    with pytest.raises(ValueError, match="analytic front"):
        analytic_front_oracle(get_function("f2", instance_id=1, dimension=2), 0.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        analytic_front_oracle(fn, 1.5)


def test_dense_front_hypervolume_is_five_sixths() -> None:
    fn = get_function("f1", instance_id=3, dimension=5)
    ideal = fn.analytic_ideal
    nadir = fn.analytic_nadir
    span_a = nadir.f_alpha - ideal.f_alpha
    span_b = nadir.f_beta - ideal.f_beta
    n = 10_000
    pts = []
    for k in range(n + 1):
        f = analytic_front_oracle(fn, k / n)
        pts.append(
            NormalizedObjectives(
                (f.f_alpha - ideal.f_alpha) / span_a,
                (f.f_beta - ideal.f_beta) / span_b,
            )
        )
    assert staircase_hypervolume(pts) == pytest.approx(5.0 / 6.0, abs=1e-3)


def test_segment_points_pareto_optimal_for_double_sphere() -> None:
    fn = get_function("f1", instance_id=6, dimension=3)
    rng = np.random.default_rng(0)
    ts = np.sort(rng.random(30))
    front = [analytic_front_oracle(fn, float(t)) for t in ts]
    for i, p in enumerate(front):
        for j, q in enumerate(front):
            assert not _dominates_raw(q, p) or i == j


def test_off_segment_points_dominated_by_projection() -> None:
    fn = get_function("f1", instance_id=1, dimension=3)
    rng = np.random.default_rng(7)
    a, b = fn.optimum_alpha, fn.optimum_beta
    ab = b - a
    denom = float(ab @ ab)
    for _ in range(50):
        x = rng.uniform(-5, 5, size=3)
        t = float((x - a) @ ab) / denom
        t = min(max(t, 0.0), 1.0)
        proj = a + t * ab
        if np.allclose(x, proj):
            continue
        assert _dominates_raw(fn.evaluate(proj), fn.evaluate(x))


def test_analytic_bounds() -> None:
    for fid in FUNCTION_IDS:
        fn = get_function(fid, instance_id=1, dimension=2)
        ideal = fn.analytic_ideal
        assert (ideal.f_alpha, ideal.f_beta) == (0.0, 0.0)
        nadir = fn.analytic_nadir
        if fid == "f1":
            d2 = float(np.sum((fn.optimum_alpha - fn.optimum_beta) ** 2))
            assert nadir is not None
            assert nadir.f_alpha == pytest.approx(d2, rel=1e-12)
            assert nadir.f_beta == pytest.approx(d2, rel=1e-12)
        else:
            assert nadir is None


def test_objectives_nonnegative_and_zero_only_at_shift() -> None:
    rng = np.random.default_rng(11)
    for fid in FUNCTION_IDS:
        fn = get_function(fid, instance_id=9, dimension=5)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=5)
            f = fn.evaluate(x)
            assert f.f_alpha >= 0.0 and f.f_beta >= 0.0
        at_a = fn.evaluate(fn.optimum_alpha)
        at_b = fn.evaluate(fn.optimum_beta)
        assert at_a.f_alpha == 0.0
        assert at_b.f_beta == 0.0
        assert at_a.f_beta > 0.0 and at_b.f_alpha > 0.0


def test_ellipsoid_conditioning_visible() -> None:
    """The ellipsoid component weights the last coordinate 100x the first."""
    fn = get_function("f2", instance_id=1, dimension=2)
    e_first = fn.evaluate(fn.optimum_beta + np.array([1.0, 0.0])).f_beta
    e_last = fn.evaluate(fn.optimum_beta + np.array([0.0, 1.0])).f_beta
    assert e_last == pytest.approx(100.0 * e_first, rel=1e-9)


def test_rotated_ellipsoid_values_within_eigenvalue_range() -> None:
    # f3's second objective along a unit step from its optimum depends on
    # direction, but the rotation is orthogonal, so the quadratic form stays
    # within the ellipsoid's weight range [1, 100].
    fn = get_function("f3", instance_id=2, dimension=5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        step = rng.normal(size=5)
        step /= math.sqrt(float(step @ step))
        val = fn.evaluate(fn.optimum_beta + step).f_beta
        assert 1.0 - 1e-9 <= val <= 100.0 + 1e-9


def test_wrong_dimension_rejected() -> None:
    fn = get_function("f1", instance_id=1, dimension=3)
    with pytest.raises(ValueError, match="length 3"):
        fn.evaluate(np.zeros(4))
    with pytest.raises(ValueError, match="dimension"):
        get_function("f1", instance_id=1, dimension=7)
    with pytest.raises(ValueError, match="unknown function"):
        get_function("f9", instance_id=1, dimension=2)
    with pytest.raises(ValueError, match="instance"):
        get_function("f1", instance_id=0, dimension=2)


def test_splitmix_generator_reference_values() -> None:
    """First outputs of the 64-bit mixing generator from a zero seed,
    cross-checked against the published reference sequence."""
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_splitmix_doubles_in_unit_interval() -> None:
    gen = SplitMix64(1234)
    values = [gen.next_double() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_mix_seed_order_sensitivity() -> None:
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    assert mix_seed(1, 2, 3) != mix_seed(3, 2, 1)
    assert mix_seed(0) != mix_seed(0, 0)


def test_function_key_distinct_per_problem() -> None:
    keys = {fn.key for fn in _all_functions()}
    assert len(keys) == 120


def test_no_degenerate_instances_in_suite() -> None:
    # Identical shifts would collapse the double-sphere front to one point;
    # the constructor rejects that, and no shipped instance triggers it.
    for fn in _all_functions():
        assert float(np.sum((fn.optimum_alpha - fn.optimum_beta) ** 2)) > 0.0


def test_evaluate_accepts_lists() -> None:
    fn = get_function("f1", instance_id=1, dimension=2)
    from_list = fn.evaluate([0.5, -0.5])
    from_array = fn.evaluate(np.array([0.5, -0.5]))
    assert from_list == from_array


def _plain_objectives(fn, x) -> tuple[float, float]:
    """The objectives by the suite's definition, from constants derived here:
    shifts, then weights ``100 ** (k / (n - 1))``, then ``f3``'s rotation
    applied in place one plane at a time (``P_0`` first), then one ``+=`` per
    coordinate from coordinate 0 up."""
    n, fid = fn.dimension, fn.function_id
    stream = _instance_stream(fid, fn.instance_id, n)
    a = [-4.0 + 8.0 * stream.next_double() for _ in range(n)]
    b = [-4.0 + 8.0 * stream.next_double() for _ in range(n)]
    w = [100.0 ** (k / (n - 1)) for k in range(n)]
    za = [xi - ai for xi, ai in zip(x, a)]
    zb = [xi - bi for xi, bi in zip(x, b)]
    if fid == "f3":
        for j in range(n - 1):
            theta = math.tau * stream.next_double()
            c, s = math.cos(theta), math.sin(theta)
            zb[j], zb[j + 1] = c * zb[j] - s * zb[j + 1], s * zb[j] + c * zb[j + 1]
    f_alpha = f_beta = 0.0
    for i in range(n):
        f_alpha += w[i] * (za[i] * za[i]) if fid == "f3" else za[i] * za[i]
        f_beta += zb[i] * zb[i] if fid == "f1" else w[i] * (zb[i] * zb[i])
    return f_alpha, f_beta


def _points(fn, rng, uniform: int = 10, near: int = 5) -> list[list[float]]:
    """Uniform points of the domain, and points within 1e-3 of each optimum."""
    n, a, b = fn.dimension, fn.optimum_alpha, fn.optimum_beta
    return np.concatenate([
        rng.uniform(-5.0, 5.0, (uniform, n)),
        a + rng.uniform(-1e-3, 1e-3, (near, n)),
        b + rng.uniform(-1e-3, 1e-3, (near, n)),
    ]).tolist()


def test_evaluate_bits_match_a_left_to_right_loop() -> None:
    """Every objective equals, bit for bit, the plain loop above, which sums
    in coordinate order with one rounding per operation.  A sum in another
    order or with compensation (``@``, ``dot``, ``einsum``, ``sum`` on
    Python 3.12+, ``math.fsum``), a fused multiply-add, or numpy's vector
    ``power`` for the weights would move bits and fail here."""
    rng = np.random.default_rng(17)
    for fn in _all_functions():
        for x in _points(fn, rng):
            got = fn.evaluate(x)
            expected = _plain_objectives(fn, x)
            assert (got.f_alpha.hex(), got.f_beta.hex()) == (
                expected[0].hex(), expected[1].hex()
            ), (fn.key, x)
        if fn.function_id == "f1":  # the nadir's d**2 is summed in the same order
            assert analytic_front_oracle(fn, 0.0) == fn.evaluate(fn.optimum_alpha), fn.key


_EDGE_VALUES = (5.0, -5.0, 0.0, -0.0, 5e-324, -5e-324, 1e160, -1.5e160, 3e159)


def _bits(objectives) -> tuple[str, str]:
    return tuple(float(f).hex() for f in objectives)


def test_compiled_objectives_match_the_loop_at_edge_values() -> None:
    """The straight-line kernel each ``SuiteFunction`` compiles on its first
    ``evaluate`` gives the bits of the plain loop on all 120 problems, at the
    domain's corners, at signed zeros and the smallest subnormal, and at
    coordinates near 1e160, whose squares overflow to ``inf``; so does a copy
    pickled before that first call, and one pickled after it."""
    rng = np.random.default_rng(31)
    for fn in _all_functions():
        n = fn.dimension
        points = [[v] * n for v in _EDGE_VALUES]
        points += rng.choice(_EDGE_VALUES, (8, n)).tolist()
        points += [fn.optimum_alpha.tolist(), [-0.0, *fn.optimum_beta.tolist()[1:]]]
        assert "_objectives" not in vars(fn), fn.key  # building compiles nothing
        before = pickle.loads(pickle.dumps(fn))
        got = [_bits(astuple(fn.evaluate(x))) for x in points]
        assert got == [_bits(_plain_objectives(fn, x)) for x in points], fn.key
        assert "inf" in {f for pair in got for f in pair}, fn.key
        assert fn._objectives.__code__.co_filename == f"<objectives {fn.key}>"
        after = pickle.loads(pickle.dumps(fn))
        assert "_objectives" not in vars(after), fn.key
        for copy in (before, after):
            assert [_bits(astuple(copy.evaluate(x))) for x in points] == got, fn.key


@pytest.mark.parametrize(
    "key, pinned",
    [
        (("f1", 2, 1), ("0x1.cfad881b746fcp+2", "0x1.5dfe10caf917fp+4")),
        (("f1", 10, 3), ("0x1.f4f3fa981b64dp+6", "0x1.84b276aaab61cp+6")),
        (("f2", 2, 1), ("0x1.6aaa464229b19p+3", "0x1.9d3159d54bc31p+10")),
        (("f2", 10, 3), ("0x1.d029f7e1cef83p+5", "0x1.50fce0f31e370p+9")),
        (("f3", 2, 1), ("0x1.71d401ffe6110p+5", "0x1.20e8170657f9ep+9")),
        (("f3", 10, 3), ("0x1.8ac93b2c136c2p+11", "0x1.2a5afb31873ffp+11")),
    ],
)
def test_objective_bits_are_pinned(key, pinned) -> None:
    """Objectives at a fixed point, as hex floats.  ``f1`` is exact IEEE
    arithmetic on the shifts; ``f2`` and ``f3`` also depend on libm ``pow``,
    ``cos`` and ``sin``."""
    fid, dim, inst = key
    fn = get_function(fid, instance_id=inst, dimension=dim)
    x = [0.5 * k - 1.75 for k in range(dim)]
    got = fn.evaluate(x)
    assert (got.f_alpha.hex(), got.f_beta.hex()) == pinned


def test_objectives_within_rounding_of_exact_and_of_dense_rotation() -> None:
    """An oracle independent of the summation order: with the same float
    constants taken as exact fractions, each unrotated objective is within
    ``(2n + 2)`` units of 2**-53 of its exact value, relative (the sum of
    ``n`` non-negative terms, each with at most three roundings).  ``f3``'s
    rotated objective is within 1e-12 of the dense-matrix form
    ``w @ (R zb)**2``, with ``R`` the product of the plane rotations."""
    rng = np.random.default_rng(23)
    for fn in _all_functions():
        n, fid = fn.dimension, fn.function_id
        a = [Fraction(v) for v in fn.optimum_alpha.tolist()]
        b = [Fraction(v) for v in fn.optimum_beta.tolist()]
        w = [Fraction(100.0 ** (k / (n - 1))) for k in range(n)]
        one = [Fraction(1)] * n
        rotation = np.eye(n)
        if fid == "f3":
            stream = _instance_stream(fid, fn.instance_id, n)
            for _ in range(2 * n):
                stream.next_double()
            for j in range(n - 1):
                theta = math.tau * stream.next_double()
                plane = np.eye(n)
                plane[j, j] = plane[j + 1, j + 1] = math.cos(theta)
                plane[j, j + 1] = -math.sin(theta)
                plane[j + 1, j] = math.sin(theta)
                rotation = plane @ rotation
        bound = Fraction(2 * n + 2, 2**53)
        for x in _points(fn, rng, uniform=3, near=2):
            got = fn.evaluate(x)
            exact = [
                sum(wi * (Fraction(xi) - si) ** 2 for wi, xi, si in zip(weights, x, shift))
                for weights, shift in (
                    (w if fid == "f3" else one, a),
                    (one if fid == "f1" else w, b),
                )
            ]
            assert abs(Fraction(got.f_alpha) - exact[0]) <= bound * exact[0], (fn.key, x)
            if fid != "f3":
                assert abs(Fraction(got.f_beta) - exact[1]) <= bound * exact[1], (fn.key, x)
            else:
                rotated = rotation @ (np.array(x) - fn.optimum_beta)
                dense = float(np.array(fn._weights) @ (rotated * rotated))
                assert got.f_beta == pytest.approx(dense, rel=1e-12, abs=0.0), (fn.key, x)


def _array_evaluate(fn, x) -> ObjectiveVector:
    """``evaluate`` as it was before lists of floats skipped numpy, copied as
    the oracle of the list path: every input through ``np.asarray``, and
    ``f3``'s two objectives in two passes, rotation angles read afresh from
    the instance stream."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (fn.dimension,):
        raise ValueError(
            f"{fn.key} expects a vector of length {fn.dimension}, got shape {arr.shape}"
        )
    xs = arr.tolist()
    a, b, w = fn.optimum_alpha.tolist(), fn.optimum_beta.tolist(), fn._weights
    f_alpha = f_beta = 0.0
    if fn.function_id == "f1":
        for xi, ai, bi in zip(xs, a, b):
            za = xi - ai
            zb = xi - bi
            f_alpha += za * za
            f_beta += zb * zb
    elif fn.function_id == "f2":
        for xi, ai, bi, wi in zip(xs, a, b, w):
            za = xi - ai
            zb = xi - bi
            f_alpha += za * za
            f_beta += wi * (zb * zb)
    else:
        for xi, ai, wi in zip(xs, a, w):
            za = xi - ai
            f_alpha += wi * (za * za)
        stream = _instance_stream(fn.function_id, fn.instance_id, fn.dimension)
        for _ in range(2 * fn.dimension):
            stream.next_double()
        carry = xs[0] - b[0]
        for j in range(fn.dimension - 1):
            theta = math.tau * stream.next_double()
            c, s = math.cos(theta), math.sin(theta)
            zb = xs[j + 1] - b[j + 1]
            r = c * carry - s * zb
            carry = s * carry + c * zb
            f_beta += w[j] * (r * r)
        f_beta += w[-1] * (carry * carry)
    return ObjectiveVector(f_alpha, f_beta)


def _outcome(evaluate, x):
    """The objectives' types and ``float.hex`` bits, or the exception's type
    and message."""
    try:
        y = evaluate(x)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(y.f_alpha), type(y.f_beta), float(y.f_alpha).hex(), float(y.f_beta).hex()


class _Float(float):
    pass


def _evaluate_inputs(n: int, rng) -> list:
    point = rng.uniform(-5.0, 5.0, n)
    floats = point.tolist()
    return [
        floats,
        [*floats[:-1], math.nan],
        [*floats[:-1], -math.inf],
        [*floats[:-1], -0.0],
        [int(v) for v in floats],
        [v > 0.0 for v in floats],
        list(point),  # np.float64 items
        list(point.astype(np.float32)),
        [*floats[:-1], np.float64(floats[-1])],
        [*floats[:-1], _Float(floats[-1])],
        [*floats[:-1], 1],
        tuple(floats),
        point,
        point.astype(np.int64),
        point.astype(np.float32),
        floats[:-1],
        [*floats, 0.5],
        [],
        [floats],
        [[v] for v in floats],
        [[floats[0]], *floats[1:]],
        [*floats[:-1], "x"],
        [*floats[:-1], None],
        point.reshape(1, n),
        np.float64(0.5),
    ]


def test_evaluate_matches_the_array_path_for_every_input() -> None:
    """A list of exactly ``dimension`` exact floats is read as it is; every
    other input gives the objectives, result types or exception of
    ``np.asarray(x, dtype=float)`` and the two-pass loops."""
    rng = np.random.default_rng(29)
    for fid in FUNCTION_IDS:
        for n in (2, 3, 10):
            for inst in (1, 7):
                fn = get_function(fid, instance_id=inst, dimension=n)
                for x in _evaluate_inputs(n, rng) + _points(fn, rng, uniform=20, near=5):
                    want = _outcome(functools.partial(_array_evaluate, fn), x)
                    assert _outcome(fn.evaluate, x) == want, (fn.key, x)
