"""Differential tests: compiled integer closed forms against rational references.

The reference implementations below evaluate both closed forms, and
those in ``conftest`` the Prop. 2 flattening and Corollary 1, directly
in rational arithmetic, entry by entry, from the interval data
(``mid()``, ``rad()`` and interval matrix products).  Every compiled path must return the same verdict, including
the first violated condition.
"""

import math
import random
from fractions import Fraction
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen_1x1, imat, ivec, ref_corollary1_absineq, ref_prop2_absineq
from iqlin import (
    AbsFormEvaluator,
    ConditionKind,
    GeneralizedIQSystem,
    InstanceSpec,
    MembershipVerdict,
    PointVector,
    Violation,
    charac,
    corollary1_construct,
    member_absform,
    member_intervalform,
    prop1_construct,
    prop2_flatten,
    random_instance,
    rat,
)
from iqlin.charac import _cleared

_ZERO = rat(0)
_MEMBER = MembershipVerdict(True)
_HUGE_DEN = 2 ** 61 + 7


def ref_intervalform(gen, pv: PointVector) -> MembershipVerdict:
    m = gen.shape[0]
    kappa = gen.kappa
    left = [gen.a_forall[s] @ pv - gen.b_forall[s] for s in range(kappa)]
    right = [gen.b_exists[s] - gen.a_exists[s] @ pv for s in range(kappa)]
    lw = [_ZERO] * m
    rw = [_ZERO] * m
    for level in range(1, kappa):
        lw = [acc + ivl.wid() for acc, ivl in zip(lw, left[level - 1])]
        rw = [acc + ivl.wid() for acc, ivl in zip(rw, right[level - 1])]
        if any(a > b for a, b in zip(lw, rw)):
            return MembershipVerdict(False, Violation(ConditionKind.WIDTH_ORDER, level))
    lsum = left[0]
    for vec in left[1:]:
        lsum = lsum + vec
    rsum = right[0]
    for vec in right[1:]:
        rsum = rsum + vec
    for i in range(m):
        if not lsum[i].subset_of(rsum[i]):
            return MembershipVerdict(False, Violation(ConditionKind.INCLUSION, i + 1))
    return _MEMBER


def _block_spreads(gen, absx):
    m, n = gen.shape
    left = []
    right = []
    for s in range(gen.kappa):
        af, ae, bf, be = gen.a_forall[s], gen.a_exists[s], gen.b_forall[s], gen.b_exists[s]
        lrow = []
        rrow = []
        for i in range(m):
            accl = bf[i].rad()
            accr = be[i].rad()
            for j in range(n):
                accl += af.rows[i][j].rad() * absx[j]
                accr += ae.rows[i][j].rad() * absx[j]
            lrow.append(accl)
            rrow.append(accr)
        left.append(lrow)
        right.append(rrow)
    return left, right


def _center_residual(gen, pv):
    m, n = gen.shape
    out = []
    for i in range(m):
        acc = _ZERO
        for s in range(gen.kappa):
            for j in range(n):
                acc += (gen.a_forall[s].rows[i][j].mid() + gen.a_exists[s].rows[i][j].mid()) * pv[j]
            acc -= gen.b_forall[s][i].mid() + gen.b_exists[s][i].mid()
        out.append(acc)
    return out


def ref_absform(gen, pv: PointVector) -> MembershipVerdict:
    m = gen.shape[0]
    left, right = _block_spreads(gen, [abs(v) for v in pv])
    lacc = [_ZERO] * m
    racc = [_ZERO] * m
    for level in range(1, gen.kappa):
        lacc = [a + b for a, b in zip(lacc, left[level - 1])]
        racc = [a + b for a, b in zip(racc, right[level - 1])]
        if any(a > b for a, b in zip(lacc, racc)):
            return MembershipVerdict(False, Violation(ConditionKind.RADIUS_ORDER, level))
    center = _center_residual(gen, pv)
    ltot = [sum(col, _ZERO) for col in zip(*left)]
    rtot = [sum(col, _ZERO) for col in zip(*right)]
    for i in range(m):
        if abs(center[i]) + ltot[i] > rtot[i]:
            return MembershipVerdict(False, Violation(ConditionKind.CENTER_BOUND, i + 1))
    return _MEMBER


def draw_point(rng: random.Random, n: int) -> PointVector:
    """Coordinates mix zeros, small fractions and denominators above 2**61."""
    coords = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.25:
            coords.append(Fraction(0))
        elif kind < 0.4:
            coords.append(Fraction(rng.randint(-2 ** 62, 2 ** 62), _HUGE_DEN + rng.randrange(2 ** 20)))
        else:
            coords.append(Fraction(rng.randint(-8, 8), rng.randint(1, 6)))
    return PointVector(coords)


def assert_all_paths_agree(gen, points: List[PointVector]) -> set:
    """Compare every per-point path with the references; return the violation kinds seen."""
    kinds = set()
    for pv in points:
        want_abs = ref_absform(gen, pv)
        want_interval = ref_intervalform(gen, pv)
        assert member_absform(gen, pv) == want_abs, (gen, pv)
        assert member_intervalform(gen, pv) == want_interval, (gen, pv)
        assert want_abs.member == want_interval.member
        kinds.update(v.violated.kind for v in (want_abs, want_interval) if not v.member)
    return kinds


def test_seeded_systems_all_shapes():
    rng = random.Random(20261018)
    kinds = set()
    for kappa in range(1, 6):
        for m in range(1, 5):
            for n in range(1, 5):
                for zero_prob in (0.0, 0.5, 1.0):
                    spec = InstanceSpec(m=m, n=n, kappa=kappa, seed=rng.randrange(2 ** 31),
                                        zero_prob=zero_prob)
                    gen = random_instance(spec)
                    points = [draw_point(rng, n) for _ in range(3)]
                    points.append(PointVector([0] * n))
                    kinds |= assert_all_paths_agree(gen, points)
    # Agreement says little about diagnostics unless every failure kind occurred.
    assert kinds == {ConditionKind.RADIUS_ORDER, ConditionKind.CENTER_BOUND,
                     ConditionKind.WIDTH_ORDER, ConditionKind.INCLUSION}


def test_boundary_points():
    # Tolerable 1x1 set [1, 4] x inside [1, 8] is [1, 2]; at 0 the lower
    # inclusion fails by one unit of the cleared arithmetic.
    gen = gen_1x1(a_fa=(1, 4), b_ex=(1, 8))
    points = [PointVector([v]) for v in ("0", "1/4", "1", "3/2", "2", "9/4", "-1")]
    assert [member_intervalform(gen, p).member for p in points] == [False, False, True, True, True, False, False]
    assert_all_paths_agree(gen, points)
    # Two blocks whose level-1 width order holds with equality at every x;
    # the solution set is [-1, 1].
    gen = gen_1x1(blocks=[((0, 2), (-1, 1), (0, 0), (0, 0)), ((0, 0), (0, 0), (0, 0), (-1, 1))])
    points = [PointVector([v]) for v in ("0", "1/2", "1", "-1", "3/2", "-3/2")]
    assert [member_absform(gen, p).member for p in points] == [True, True, True, True, False, False]
    assert_all_paths_agree(gen, points)


@settings(max_examples=150, deadline=None)
@given(
    kappa=st.integers(1, 5),
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    zero_prob=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    seed=st.integers(0, 2 ** 31 - 1),
    max_denominator=st.sampled_from([1, 4, 9]),
    coords=st.lists(
        st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=-10, max_value=10, max_denominator=12),
            st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(2 ** 61 + 1, 2 ** 64)),
        ),
        min_size=4, max_size=4,
    ),
)
def test_hypothesis_systems(kappa, m, n, zero_prob, seed, max_denominator, coords):
    spec = InstanceSpec(m=m, n=n, kappa=kappa, seed=seed, zero_prob=zero_prob,
                        max_denominator=max_denominator)
    gen = random_instance(spec)
    assert_all_paths_agree(gen, [PointVector(coords[:n]), PointVector(coords[-n:])])


def test_prop2_flatten_matches_reference():
    rng = random.Random(99)
    for _ in range(150):
        spec = InstanceSpec(m=rng.randint(1, 4), n=rng.randint(1, 4), kappa=rng.randint(1, 5),
                            seed=rng.randrange(2 ** 31), zero_prob=rng.choice([0.0, 0.4, 1.0]),
                            max_denominator=rng.choice([1, 4, 7]))
        gen = random_instance(spec)
        assert prop2_flatten(gen) == prop1_construct(ref_prop2_absineq(gen))


def test_corollary1_matches_reference():
    rng = random.Random(1807)
    for m in range(1, 5):
        for n in range(1, 5):
            for zero_prob in (0.0, 0.4, 1.0):
                for max_denominator in (1, 4, 9) * 5:
                    spec = InstanceSpec(m=m, n=n, kappa=1, seed=rng.randrange(2 ** 31),
                                        zero_prob=zero_prob, max_denominator=max_denominator)
                    blocks = random_instance(spec).block(1)
                    assert corollary1_construct(*blocks) == prop1_construct(ref_corollary1_absineq(*blocks))
    a = imat([[(1, 2)]])
    b = ivec([(0, 1)])
    for bad in ((a, imat([[(1, 2), (0, 0)]]), b, b), (a, a, ivec([(0, 1), (0, 1)]), b)):
        with pytest.raises(ValueError):
            corollary1_construct(*bad)
        with pytest.raises(ValueError):
            ref_corollary1_absineq(*bad)


def ref_compiled_rows(gen) -> tuple:
    """Fraction references of the compiled ``left``, ``order`` and ``center`` rows, flat, level-major.

    Each compiled row must equal 2 * denom times its reference: ``order``
    level l holds sum_{s<=l} (rad A''_s - rad A'_s | rad b''_s - rad b'_s)
    for l = 1..kappa, ``left`` level l holds sum_{s<=l} (rad A'_s | rad b'_s)
    for l < kappa, and ``center`` sum_s (mid A'_s + mid A''_s | -(mid b'_s + mid b''_s)).
    """
    m, n = gen.shape

    def rad_row(mat, vec, i):
        return [e.rad() for e in mat.rows[i]] + [vec[i].rad()]

    left, order = [], []
    lacc = racc = [[_ZERO] * (n + 1)] * m
    for s in range(gen.kappa):
        lacc = [[a + r for a, r in zip(acc, rad_row(gen.a_forall[s], gen.b_forall[s], i))]
                for i, acc in enumerate(lacc)]
        racc = [[a + r for a, r in zip(acc, rad_row(gen.a_exists[s], gen.b_exists[s], i))]
                for i, acc in enumerate(racc)]
        order += [r - l for lrow, rrow in zip(lacc, racc) for l, r in zip(lrow, rrow)]
        if s < gen.kappa - 1:
            left += [v for row in lacc for v in row]
    center = []
    for i in range(m):
        center += [sum((gen.a_forall[s].rows[i][j].mid() + gen.a_exists[s].rows[i][j].mid()
                        for s in range(gen.kappa)), _ZERO) for j in range(n)]
        center.append(-sum((gen.b_forall[s][i].mid() + gen.b_exists[s][i].mid() for s in range(gen.kappa)), _ZERO))
    return left, order, center


def assert_compiled_values(gen) -> None:
    comp = gen.compiled
    scale = 2 * comp.denom
    for name, ref in zip(("left", "order", "center"), ref_compiled_rows(gen)):
        assert list(getattr(comp, name)) == [scale * v for v in ref], name


def test_compiled_values_seeded():
    rng = random.Random(20261020)
    for kappa in (1, 1, 2, 3, 5):
        for m in range(1, 4):
            for n in range(1, 4):
                spec = InstanceSpec(m=m, n=n, kappa=kappa, seed=rng.randrange(2 ** 31),
                                    zero_prob=rng.choice([0.0, 0.3, 0.7]), max_denominator=rng.choice([1, 4, 9]),
                                    magnitude=rng.choice([8, 2 ** 70]))
                assert_compiled_values(random_instance(spec))
    huge = 10 ** 23
    assert_compiled_values(GeneralizedIQSystem(
        a_forall=[imat([[(-huge, huge), (0, 0)]]), imat([[(1, 3), ("1/3", "1/2")]])],
        a_exists=[imat([[(0, 0), (1, 2)]]), imat([[(-huge, 7), (0, 0)]])],
        b_forall=[ivec([(0, 0)]), ivec([("-1/7", 2)])],
        b_exists=[ivec([(0, 1)]), ivec([(-2, huge)])],
    ))


@settings(max_examples=100, deadline=None)
@given(
    kappa=st.integers(1, 5),
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    zero_prob=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    seed=st.integers(0, 2 ** 31 - 1),
    max_denominator=st.sampled_from([1, 4, 9, 2 ** 40]),
    magnitude=st.sampled_from([1, 8, 2 ** 63, 2 ** 80]),
)
def test_compiled_values_hypothesis(kappa, m, n, zero_prob, seed, max_denominator, magnitude):
    assert_compiled_values(random_instance(InstanceSpec(m=m, n=n, kappa=kappa, seed=seed, zero_prob=zero_prob,
                                                        max_denominator=max_denominator, magnitude=magnitude)))


def test_evaluator_coefficients_are_reduced():
    # Doubled rows of [0, 2] are all even; divided by their gcd they match the
    # smallest integer scaling, so this point still fits the int64 bound.
    gen = gen_1x1(a_ex=(0, 2))
    assert AbsFormEvaluator(gen).encode_points([PointVector([2 ** 59])]) is not None


def test_batch_and_fallback_match_per_point():
    rng = random.Random(4242)
    for _ in range(60):
        spec = InstanceSpec(m=rng.randint(1, 4), n=rng.randint(1, 4), kappa=rng.randint(1, 5),
                            seed=rng.randrange(2 ** 31), zero_prob=rng.choice([0.2, 0.5]))
        gen = random_instance(spec)
        evaluator = AbsFormEvaluator(gen)
        in_bound = [PointVector(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(spec.n))
                    for _ in range(40)]
        over_bound = in_bound[:5] + [PointVector([Fraction(1, _HUGE_DEN)] * spec.n)]
        assert evaluator.encode_points(in_bound) is not None
        assert evaluator.encode_points(over_bound) is None
        for batch in (in_bound, over_bound):
            assert evaluator.member_many(batch) == [member_absform(gen, p).member for p in batch]
            assert evaluator.member_many(batch) == [ref_absform(gen, p).member for p in batch]


def test_rows_beyond_int64_take_exact_path():
    # A [-10^23, 10^23] entry puts the evaluator's rows past int64: building
    # it must not raise, and every batch, the empty one too, goes per point.
    huge = 10 ** 23
    gen = GeneralizedIQSystem(
        a_forall=[imat([[(-huge, huge), (0, 0)]])],
        a_exists=[imat([[(0, 0), (1, 2)]])],
        b_forall=[ivec([(0, 0)])],
        b_exists=[ivec([(0, 1)])],
    )
    evaluator = AbsFormEvaluator(gen)
    points = [PointVector([Fraction(i, 2), Fraction(j, 3)]) for i in range(-3, 4) for j in range(-4, 5)]
    assert evaluator.encode_points(points) is None
    assert evaluator.encode_points([]) is None
    verdicts = evaluator.member_many(points)
    assert verdicts == [member_absform(gen, p).member for p in points]
    assert verdicts == [ref_absform(gen, p).member for p in points]
    assert any(verdicts) and not all(verdicts)
    assert evaluator.member_many([]) == []


def _largest_accepted_entry(evaluator) -> int:
    """The largest encoded entry magnitude the evaluator's int64 bound accepts."""
    hi = 1
    while evaluator._fits(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if evaluator._fits(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("gen", [
    # A'' = [2^31, 2^31 + 2], b'' = [-1, 1]: past the bound, int64 wraps and
    # 8589934587 would read as a member.
    gen_1x1(a_ex=(2 ** 31, 2 ** 31 + 2), b_ex=(-1, 1)),
    gen_1x1(a_fa=(-2 ** 40, -2 ** 40 + 6), a_ex=(3 * 2 ** 29, 3 * 2 ** 29 + 2), b_ex=(-5, 7)),
    gen_1x1(blocks=[((2 ** 33, 2 ** 33 + 4), (0, 0), (0, 0), (0, 0)),
                    ((0, 0), (2 ** 35, 2 ** 35 + 2), (0, 0), (-3, 3))]),
], ids=["roadmap-1x1", "both-sides", "two-blocks"])
def test_overflow_bound_edge(gen):
    # At the largest entry the int64 bound accepts the kernel decides the
    # point; one past it the point goes to the exact per-point path.  Both
    # must equal member_absform, on either sign.
    evaluator = AbsFormEvaluator(gen)
    edge = _largest_accepted_entry(evaluator)
    assert evaluator.encode_points([PointVector([edge])]) is not None
    assert evaluator.encode_points([PointVector([edge + 1])]) is None
    points = [PointVector([v]) for v in (edge, -edge, edge + 1, -edge - 1, 8589934587, Fraction(1, edge))]
    for batch in ([p] for p in points):
        assert evaluator.member_many(batch) == [member_absform(gen, p).member for p in batch], batch
    assert evaluator.member_many(points) == [member_absform(gen, p).member for p in points]


@pytest.mark.parametrize("gen", [
    gen_1x1(a_ex=(2 ** 31, 2 ** 31 + 2), b_ex=(-1, 1)),
    gen_1x1(a_ex=(0, 2)),
    random_instance(InstanceSpec(m=3, n=4, kappa=2, seed=5)),
], ids=["roadmap-1x1", "reduced", "random"])
def test_bound_is_the_largest_accepted_entry(gen):
    evaluator = AbsFormEvaluator(gen)
    assert evaluator._fits(evaluator._bound)
    assert not evaluator._fits(evaluator._bound + 1)


# A 2x3, two-block system on which about half of small random points are
# members, so a verdict mix-up between kernel and fallback shows.
_Z = (0, 0)
_MIXED = GeneralizedIQSystem(
    a_forall=[imat([[_Z, _Z, _Z], [_Z, _Z, _Z]]), imat([[(1, 2), _Z, _Z], [_Z, _Z, (-1, 1)]])],
    a_exists=[imat([[(-1, 1), _Z, (-1, 1)], [_Z, (-2, 2), _Z]]), imat([[_Z, _Z, _Z], [_Z, _Z, _Z]])],
    b_forall=[ivec([(-2, 2), (-1, 1)]), ivec([_Z, _Z])],
    b_exists=[ivec([(0, 1), (-1, 0)]), ivec([(-3, 3), (-3, 3)])],
)


def _fallback_indices(evaluator, points) -> List[int]:
    """The indices member_many sends to member_absform; its verdicts must equal member_absform's."""
    want = [member_absform(evaluator.gen, p).member for p in points]
    with mock.patch.object(charac, "member_absform", wraps=charac.member_absform) as spy:
        assert evaluator.member_many(points) == want
    index = {id(p): i for i, p in enumerate(points)}
    return [index[id(call.args[1])] for call in spy.call_args_list]


def test_mixed_batch_falls_back_per_point():
    rng = random.Random(77)
    points = [PointVector(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)) for _ in range(40)]
    over = [3, 17, 39]
    for i in over:
        entries = list(points[i])
        entries[i % 3] += Fraction(1, _HUGE_DEN)
        points[i] = PointVector(entries)
    verdicts = [member_absform(_MIXED, p).member for p in points]
    assert any(verdicts) and not all(verdicts)
    assert _fallback_indices(AbsFormEvaluator(_MIXED), points) == over


def test_int64_min_numerator_falls_back():
    # np.abs(-2**63) is -2**63 in int64, so a naive |num| <= bound test passes it.
    points = [PointVector([v, 1, 0]) for v in (Fraction(1, 2), Fraction(-2 ** 63), Fraction(-2 ** 63, 3), -1)]
    assert _fallback_indices(AbsFormEvaluator(_MIXED), points) == [1, 2]


def test_entries_beyond_int64_fall_back():
    wide = (2 ** 63, -2 ** 63 - 1, Fraction(1, 2 ** 63), Fraction(2 ** 64, 3), Fraction(-5, 2 ** 70 + 1))
    points = [PointVector([1, Fraction(1, 2), 0])]
    for v in wide:
        points += [PointVector([0, v, 1]), PointVector([2, -1, Fraction(3, 4)])]
    assert _fallback_indices(AbsFormEvaluator(_MIXED), points) == [1, 3, 5, 7, 9]


def test_coprime_denominators_past_the_bound_fall_back():
    # 1/d and 1/(d+1) each clear within the bound; their lcm d*(d+1) does not.
    evaluator = AbsFormEvaluator(_MIXED)
    d = math.isqrt(evaluator._bound) + 1
    points = [PointVector(v) for v in ((Fraction(1, d), 0, 1), (0, Fraction(1, d + 1), 1),
                                       (Fraction(1, d), Fraction(1, d + 1), 1), (Fraction(1, d), Fraction(3, d), 1))]
    assert _fallback_indices(evaluator, points) == [2]


def test_scaled_numerator_just_past_the_bound_falls_back():
    # With lx = 3 the first entry clears to 3 * q: q = bound // 3 fits, q + 1 does not.
    evaluator = AbsFormEvaluator(_MIXED)
    q = evaluator._bound // 3
    points = [PointVector([v, Fraction(1, 3), 0]) for v in (q, q + 1, -q, -q - 1)]
    assert _fallback_indices(evaluator, points) == [1, 3]


def test_empty_batch_and_rows_beyond_int64_fall_back():
    assert _fallback_indices(AbsFormEvaluator(_MIXED), []) == []
    huge = 10 ** 23
    gen = GeneralizedIQSystem(
        a_forall=[imat([[(-huge, huge), (0, 0)]])],
        a_exists=[imat([[(0, 0), (1, 2)]])],
        b_forall=[ivec([(0, 0)])],
        b_exists=[ivec([(0, 1)])],
    )
    points = [PointVector([Fraction(i, 2), 1]) for i in range(-3, 4)]
    assert _fallback_indices(AbsFormEvaluator(gen), points) == list(range(len(points)))
    assert _fallback_indices(AbsFormEvaluator(gen), []) == []


_ENTRY = st.builds(Fraction, st.one_of(st.integers(-50, 50), st.integers(-2 ** 64, 2 ** 64)),
                   st.one_of(st.integers(1, 12), st.integers(1, 2 ** 62)))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_ENTRY, min_size=3, max_size=3), max_size=12))
def test_encoder_columns_equal_cleared(rows):
    evaluator = AbsFormEvaluator(_MIXED)
    points = [PointVector(row) for row in rows]
    aug, fits = evaluator._encode(points)
    columns = [_cleared(p, 3) for p in points]
    assert fits.tolist() == [evaluator._fits(max(map(abs, column))) for column in columns]
    assert aug.T.tolist() == [column for column, ok in zip(columns, fits) if ok]
    assert aug.dtype == np.int64 and aug.flags.c_contiguous
