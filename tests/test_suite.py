"""Test-suite function tests: instance determinism and analytic anchors."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bibench.archive import staircase_hypervolume
from bibench.core import NormalizedObjectives, ObjectiveVector
from bibench.suite import (
    DIMENSIONS,
    FUNCTION_IDS,
    INSTANCE_IDS,
    SplitMix64,
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


def test_evaluate_bits_match_matmul_expressions() -> None:
    """``evaluate`` calls BLAS through ``ndarray.dot``; its objectives must
    equal, bit for bit, the ``@`` expressions below, on uniform points and
    on points within 1e-3 of each optimum.  A reduction in another order
    (``einsum``, ``sum``, ``math.fsum``) would move bits and fail here."""
    rng = np.random.default_rng(17)
    for fn in _all_functions():
        n = fn.dimension
        a, b, w, rot = fn.optimum_alpha, fn.optimum_beta, fn._weights, fn._rotation
        points = np.concatenate([
            rng.uniform(-5.0, 5.0, (10, n)),
            a + rng.uniform(-1e-3, 1e-3, (5, n)),
            b + rng.uniform(-1e-3, 1e-3, (5, n)),
        ])
        for x in points:
            za, zb = x - a, x - b
            if fn.function_id == "f1":
                expected = (za @ za, zb @ zb)
            elif fn.function_id == "f2":
                expected = (za @ za, w @ (zb * zb))
            else:
                rotated = rot @ zb
                expected = (w @ (za * za), w @ (rotated * rotated))
            got = fn.evaluate(x)
            assert (got.f_alpha.hex(), got.f_beta.hex()) == (
                float(expected[0]).hex(), float(expected[1]).hex()
            ), (fn.key, x)
