"""Differential test: the AE split and prefix against explicit slot loops.

``AESystem.split`` reads its forall/exists blocks off ``build_tuples``
applied to ``ae_as_classic``.  The references below place each entry by
its own quantifier, entry by entry, and list the prefix directly, so a
change to either library path shows up as a mismatch here.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_interval
from iqlin import (
    AbsIneqSystem,
    AESystem,
    ClassicIQSystem,
    InstanceSpec,
    Interval,
    IntervalMatrix,
    IntervalVector,
    Quantifier,
    QuantifierPrefix,
    corollary1_construct,
    matrix_param,
    prop1_construct,
    prop2_flatten,
    random_instance,
    rhs_param,
)
from iqlin.charac import ae_as_classic


def ref_split(ae: AESystem) -> tuple:
    m, n = ae.A.shape
    zero = Interval.zero()
    fa = [[zero] * n for _ in range(m)]
    ex = [[zero] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if ae.alpha[i][j] is Quantifier.FORALL:
                fa[i][j] = ae.A.entry(i, j)
            else:
                ex[i][j] = ae.A.entry(i, j)
    bfa = [zero] * m
    bex = [zero] * m
    for i in range(m):
        if ae.beta[i] is Quantifier.FORALL:
            bfa[i] = ae.b[i]
        else:
            bex[i] = ae.b[i]
    return (IntervalMatrix(fa), IntervalMatrix(ex), IntervalVector(bfa), IntervalVector(bex))


def ref_ae_as_classic(ae: AESystem) -> ClassicIQSystem:
    m, n = ae.shape
    bindings = []
    for want in (Quantifier.FORALL, Quantifier.EXISTS):
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if ae.alpha[i - 1][j - 1] is want:
                    bindings.append((matrix_param(i, j), want))
            if ae.beta[i - 1] is want:
                bindings.append((rhs_param(i), want))
    return ClassicIQSystem(ae.A, ae.b, QuantifierPrefix(m, n, bindings))


def assert_matches_reference(ae: AESystem) -> None:
    assert ae.split() == ref_split(ae), ae
    assert ae_as_classic(ae) == ref_ae_as_classic(ae), ae


def _prop1_outputs(rng: random.Random, count: int):
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(1, 4)

        def rmat():
            return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]

        def rvec():
            return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]

        yield prop1_construct(AbsIneqSystem(rmat(), rmat(), rvec(), rvec()))


def _prop2_outputs(rng: random.Random, count: int):
    for seed in range(count):
        spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3), kappa=rng.randint(1, 4),
                            seed=seed, zero_prob=rng.choice((0.0, 0.4, 1.0)))
        yield prop2_flatten(random_instance(spec))


def _corollary1_outputs(rng: random.Random, count: int):
    for _ in range(count):
        m, n = rng.randint(1, 3), rng.randint(1, 3)

        def rmat():
            return IntervalMatrix([[random_interval(rng, zero_prob=0.3) for _ in range(n)] for _ in range(m)])

        def rvec():
            return IntervalVector([random_interval(rng, zero_prob=0.3) for _ in range(m)])

        yield corollary1_construct(rmat(), rmat(), rvec(), rvec())


@pytest.mark.parametrize("outputs", [_prop1_outputs, _prop2_outputs, _corollary1_outputs],
                         ids=["prop1", "prop2", "corollary1"])
def test_constructed_systems(outputs):
    for ae in outputs(random.Random(20261018), 300):
        assert_matches_reference(ae)


@pytest.mark.parametrize("matrix_quant", list(Quantifier), ids=str)
@pytest.mark.parametrize("rhs_quant", list(Quantifier), ids=str)
def test_uniform_with_zero_entries(matrix_quant, rhs_quant):
    rng = random.Random(7)
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = IntervalMatrix([[random_interval(rng, zero_prob=0.5) for _ in range(n)] for _ in range(m)])
        b = IntervalVector([random_interval(rng, zero_prob=0.5) for _ in range(m)])
        assert_matches_reference(AESystem.uniform(A, b, matrix_quant, rhs_quant))
    zero = AESystem.uniform(IntervalMatrix.zero(2, 3), IntervalVector.zero(2), matrix_quant, rhs_quant)
    assert_matches_reference(zero)


def test_split_is_computed_once():
    ae = AESystem.uniform(IntervalMatrix([[Interval(1, 2)]]), IntervalVector([Interval(3, 4)]),
                          Quantifier.FORALL, Quantifier.EXISTS)
    assert ae.split() is ae.split()
