"""Differential test: the one-block conversions against explicit slot loops.

``prop1_construct`` (and through it ``prop2_flatten`` and
``corollary1_construct``) puts each box in the forall or the exists slot
of one block, and ``recompose_prefix`` lists the result as a classic
prefix.  The references below place each box by the sign of its own D or
d coefficient, entry by entry, and list the prefix directly, universals
first, so a change to either library path shows up as a mismatch here.
The one-block deciders are checked against the block forms on
``build_tuples`` of a classic document with a uniform prefix.
"""

import random
from fractions import Fraction

import pytest

from conftest import imat, ivec, random_interval, ref_corollary1_absineq, ref_prop2_absineq
from iqlin import (
    AbsIneqSystem,
    ClassicIQSystem,
    GeneralizedIQSystem,
    InstanceSpec,
    Interval,
    IntervalMatrix,
    IntervalVector,
    Quantifier,
    QuantifierPrefix,
    build_tuples,
    corollary1_construct,
    matrix_param,
    member_controllable,
    member_rohn,
    member_rohn_blocks,
    member_shary,
    member_shary_blocks,
    member_tolerable,
    member_united,
    prop1_construct,
    prop2_flatten,
    random_instance,
    random_point,
    rat,
    recompose_prefix,
    rhs_param,
)

A, E = Quantifier.FORALL, Quantifier.EXISTS


def quantifier(coeff) -> Quantifier:
    return A if coeff < 0 else E


def ref_slots(sys: AbsIneqSystem) -> GeneralizedIQSystem:
    m, n = sys.shape
    zero = Interval.zero()
    fa = [[zero] * n for _ in range(m)]
    ex = [[zero] * n for _ in range(m)]
    bfa = [zero] * m
    bex = [zero] * m
    for i in range(m):
        for j in range(n):
            spread = abs(sys.D[i][j])
            box = Interval(sys.C[i][j] - spread, sys.C[i][j] + spread)
            if sys.D[i][j] < 0:
                fa[i][j] = box
            else:
                ex[i][j] = box
        spread = abs(sys.d[i])
        box = Interval(sys.c[i] - spread, sys.c[i] + spread)
        if sys.d[i] < 0:
            bfa[i] = box
        else:
            bex[i] = box
    return GeneralizedIQSystem([IntervalMatrix(fa)], [IntervalMatrix(ex)],
                               [IntervalVector(bfa)], [IntervalVector(bex)])


def ref_prefix(sys: AbsIneqSystem) -> QuantifierPrefix:
    m, n = sys.shape
    bindings = []
    for want in (A, E):
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if quantifier(sys.D[i - 1][j - 1]) is want:
                    bindings.append((matrix_param(i, j), want))
            if quantifier(sys.d[i - 1]) is want:
                bindings.append((rhs_param(i), want))
    return QuantifierPrefix(m, n, bindings)


def assert_matches_reference(sys: AbsIneqSystem, flat: GeneralizedIQSystem) -> None:
    assert flat == ref_slots(sys), sys
    assert recompose_prefix(flat) == ref_prefix(sys), sys


def _prop1_outputs(rng: random.Random, count: int):
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(1, 4)

        def rmat():
            return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]

        def rvec():
            return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]

        sys = AbsIneqSystem(rmat(), rmat(), rvec(), rvec())
        yield sys, prop1_construct(sys)


def _prop2_outputs(rng: random.Random, count: int):
    for seed in range(count):
        spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3), kappa=rng.randint(1, 4),
                            seed=seed, zero_prob=rng.choice((0.0, 0.4, 1.0)))
        gen = random_instance(spec)
        yield ref_prop2_absineq(gen), prop2_flatten(gen)


def _corollary1_outputs(rng: random.Random, count: int):
    for _ in range(count):
        m, n = rng.randint(1, 3), rng.randint(1, 3)

        def rmat():
            return IntervalMatrix([[random_interval(rng, zero_prob=0.3) for _ in range(n)] for _ in range(m)])

        def rvec():
            return IntervalVector([random_interval(rng, zero_prob=0.3) for _ in range(m)])

        blocks = (rmat(), rmat(), rvec(), rvec())
        yield ref_corollary1_absineq(*blocks), corollary1_construct(*blocks)


@pytest.mark.parametrize("outputs", [_prop1_outputs, _prop2_outputs, _corollary1_outputs],
                         ids=["prop1", "prop2", "corollary1"])
def test_constructed_systems(outputs):
    for sys, flat in outputs(random.Random(20261018), 300):
        assert_matches_reference(sys, flat)


# The named one-block sets by their (matrix, rhs) quantifiers.
NAMED = {(E, E): member_united, (A, E): member_tolerable, (E, A): member_controllable}


def uniform_classic(A_: IntervalMatrix, b: IntervalVector, matrix_quant, rhs_quant) -> ClassicIQSystem:
    """A and b under one quantifier each, universals outermost, so one A*E* block."""
    m, n = A_.shape
    bindings = [(matrix_param(i, j), matrix_quant) for i in range(1, m + 1) for j in range(1, n + 1)]
    bindings += [(rhs_param(i), rhs_quant) for i in range(1, m + 1)]
    bindings.sort(key=lambda binding: binding[1] is E)
    return ClassicIQSystem(A_, b, QuantifierPrefix(m, n, bindings))


@pytest.mark.parametrize("matrix_quant", list(Quantifier), ids=str)
@pytest.mark.parametrize("rhs_quant", list(Quantifier), ids=str)
def test_uniform_with_zero_entries(matrix_quant, rhs_quant):
    rng = random.Random(7)
    named = NAMED.get((matrix_quant, rhs_quant))
    systems = []
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        systems.append((IntervalMatrix([[random_interval(rng, zero_prob=0.5) for _ in range(n)] for _ in range(m)]),
                        IntervalVector([random_interval(rng, zero_prob=0.5) for _ in range(m)])))
    systems.append((imat([[(0, 0)] * 3] * 2), ivec([(0, 0)] * 2)))
    for A_, b in systems:
        gen = build_tuples(uniform_classic(A_, b, matrix_quant, rhs_quant))
        blocks = gen.block(1)
        for x in [random_point(A_.shape[1], rng) for _ in range(4)] + [[rat(0)] * A_.shape[1]]:
            assert member_shary(gen, x) == member_shary_blocks(*blocks, x)
            assert member_rohn(gen, x) == member_rohn_blocks(*blocks, x)
            if named is not None:
                assert named(A_, b, x) == member_rohn_blocks(*blocks, x)
