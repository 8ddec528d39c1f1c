"""The exact member set along an axis-parallel line (``line_members``).

The line solve only picks points: its interval ends are exact boundary
points of the solution set, where ``<`` against ``<=`` decides the
verdict.  On those ends and on their neighbours at distance 1/q, both
closed forms must agree with "inside one of the intervals", and the
batch evaluator and the flattened one-block form must agree with
``member_absform``.
"""

import random
from fractions import Fraction

import pytest

from conftest import gen_1x1, imat, ivec, wide_exists_system
from iqlin import (
    AbsFormEvaluator,
    GeneralizedIQSystem,
    InstanceSpec,
    PointVector,
    line_members,
    member_absform,
    member_intervalform,
    member_rohn,
    prop2_flatten,
    random_instance,
)

# Neighbours of an interval end are this close to it.
_Q = 10 ** 12


def inside(intervals, v) -> bool:
    return any((lo is None or lo <= v) and (hi is None or v <= hi) for lo, hi in intervals)


def assert_well_formed(intervals):
    assert len(intervals) <= 2
    for lo, hi in intervals:
        assert lo is None or hi is None or lo <= hi
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi is not None and lo is not None and hi < lo


def assert_line_agrees(gen, x, axis, values) -> list:
    """Both closed forms at x with x[axis] = v agree with the line solve; return the verdicts."""
    intervals = line_members(gen, x, axis)
    assert_well_formed(intervals)
    verdicts = []
    for v in values:
        point = list(x)
        point[axis] = v
        want = inside(intervals, v)
        assert member_absform(gen, point).member == want, (gen, point, intervals)
        assert member_intervalform(gen, point).member == want, (gen, point, intervals)
        verdicts.append(want)
    return verdicts


def draw_coordinate(rng: random.Random) -> Fraction:
    return Fraction(0) if rng.random() < 0.2 else Fraction(rng.randint(-12, 12), rng.randint(1, 5))


def test_boundary_points_of_seeded_systems():
    rng = random.Random(20261019)
    ends = inside_ends = outside_neighbours = 0
    for kappa in range(1, 5):
        for m in range(1, 5):
            for n in range(1, 5):
                spec = InstanceSpec(m=m, n=n, kappa=kappa, seed=rng.randrange(2 ** 31),
                                    zero_prob=rng.choice([0.2, 0.5, 0.8]))
                for gen in (random_instance(spec), wide_exists_system(rng, m, n, kappa)):
                    for _ in range(4):
                        x = [draw_coordinate(rng) for _ in range(n)]
                        axis = rng.randrange(n)
                        finite = [v for pair in line_members(gen, x, axis) for v in pair if v is not None]
                        values = [w for v in finite for w in (v, v - Fraction(1, _Q), v + Fraction(1, _Q))]
                        verdicts = assert_line_agrees(gen, x, axis, values + [x[axis], Fraction(0)])
                        ends += len(finite)
                        inside_ends += sum(verdicts[0:len(values):3])
                        outside_neighbours += len(values) - sum(verdicts[:len(values)])
    # Every end is a member (closed intervals), and the corpus must reach
    # both sides of many boundaries for the comparison to mean anything.
    assert inside_ends == ends
    assert ends > 250 and outside_neighbours > 250


def test_boundary_points_other_deciders():
    # At every exact end and its +-1/q neighbours, member_many and
    # member_rohn on prop2_flatten equal member_absform.  Each batch also
    # holds one point 1/2**64 past an end, whose column is beyond the int64
    # bound, so it takes the rational fallback.
    rng = random.Random(20261021)
    batch_lanes = members = non_members = 0
    for kappa in range(1, 5):
        for m in range(1, 5):
            for n in range(1, 5):
                spec = InstanceSpec(m=m, n=n, kappa=kappa, seed=rng.randrange(2 ** 31),
                                    zero_prob=rng.choice([0.2, 0.5, 0.8]))
                for gen in (random_instance(spec), wide_exists_system(rng, m, n, kappa)):
                    points, over = [], None
                    for _ in range(6):
                        x = [draw_coordinate(rng) for _ in range(n)]
                        axis = rng.randrange(n)
                        for v in [v for pair in line_members(gen, x, axis) for v in pair if v is not None]:
                            for w in (v, v - Fraction(1, _Q), v + Fraction(1, _Q)):
                                points.append(list(x))
                                points[-1][axis] = w
                            if over is None:
                                over = list(x)
                                over[axis] = v + Fraction(1, 2 ** 64)
                    if over is None:
                        continue
                    points.append(over)
                    want = [member_absform(gen, p).member for p in points]
                    evaluator = AbsFormEvaluator(gen)
                    fits = evaluator._encode(points)[1]
                    assert not fits[-1]
                    batch_lanes += int(fits.sum())
                    assert evaluator.member_many(points) == want, gen
                    flat = prop2_flatten(gen)
                    assert [member_rohn(flat, p).member for p in points] == want, gen
                    members += sum(want)
                    non_members += len(want) - sum(want)
    assert batch_lanes > 1000 and members > 500 and non_members > 400


def test_one_point_interval():
    # x = 2 exactly: a'' in [1, 1], b'' in [2, 2].
    gen = gen_1x1(a_ex=(1, 1), b_ex=(2, 2))
    assert line_members(gen, [0], 0) == [(2, 2)]
    assert_line_agrees(gen, [0], 0, [2, 2 - Fraction(1, _Q), 2 + Fraction(1, _Q), 0])
    # Two uncoupled order-sensitive pairs: the solution set is {(0, 0)}.
    gen = GeneralizedIQSystem(
        a_forall=[imat([[(1, 2), (0, 0)], [(0, 0), (1, 2)]]), imat([[(0, 0)] * 2] * 2)],
        a_exists=[imat([[(0, 0)] * 2] * 2)] * 2,
        b_forall=[ivec([(0, 0), (0, 0)])] * 2,
        b_exists=[ivec([(0, 0), (0, 0)]), ivec([(-1, 1), (-1, 1)])],
    )
    assert line_members(gen, [0, 5], 1) == [(0, 0)]
    assert line_members(gen, [Fraction(1, _Q), 0], 1) == []
    assert_line_agrees(gen, [0, 0], 1, [0, Fraction(1, _Q), Fraction(-1, _Q)])


def test_unbounded_ends_and_empty_half():
    # Some a'' in [0, 1] with a'' x = 1: x >= 1, the negative half is empty.
    gen = gen_1x1(a_ex=(0, 1), b_ex=(1, 1))
    assert line_members(gen, [0], 0) == [(1, None)]
    assert_line_agrees(gen, [0], 0, [1, 1 - Fraction(1, _Q), -1, 10 ** 30])
    # Some a'' in [-1, 1] with a'' x = 1: |x| >= 1, two unbounded halves.
    gen = gen_1x1(a_ex=(-1, 1), b_ex=(1, 1))
    assert line_members(gen, [0], 0) == [(None, -1), (1, None)]
    assert_line_agrees(gen, [0], 0, [-1, 1, 0, Fraction(1, 2), -10 ** 30])
    # The zero system: every point is a member.
    assert line_members(gen_1x1(), [7], 0) == [(None, None)]


def test_halves_merge_at_axis_zero():
    # Every a' in [1, 2] lands a' x inside [-1, 1]: |x| <= 1/2, one interval
    # through x = 0 although each sign is solved on its own.
    gen = gen_1x1(a_fa=(1, 2), b_ex=(-1, 1))
    half = Fraction(1, 2)
    assert line_members(gen, [0], 0) == [(-half, half)]
    assert_line_agrees(gen, [0], 0, [0, half, -half, half + Fraction(1, _Q)])
    # The axis coordinate of x is ignored.
    gen = random_instance(InstanceSpec(m=2, n=3, kappa=2, seed=5))
    assert line_members(gen, [1, 9, Fraction(-1, 3)], 1) == line_members(gen, [1, 0, Fraction(-1, 3)], 1)


def test_axis_out_of_range():
    gen = random_instance(InstanceSpec(m=1, n=2, kappa=1, seed=1))
    for axis in (-1, 2):
        with pytest.raises(ValueError):
            line_members(gen, PointVector([0, 0]), axis)
