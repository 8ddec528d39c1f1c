"""The batch encoder against the per-point path, and the Fraction layout it reads.

``AbsFormEvaluator._encode`` reads every point entry through the
``_numerator`` and ``_denominator`` slots of its Fraction.  The tests
here check that its columns, fit mask and verdicts equal the per-point
path (``_cleared``, ``member_absform``) on batches that mix every kind of
entry the encoder treats apart, and pin the two facts the slot read
rests on, so that a Python whose Fraction layout differs fails by name.
"""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import imat, ivec
from iqlin import (
    AbsFormEvaluator,
    GeneralizedIQSystem,
    InstanceSpec,
    Outcome,
    PointVector,
    game_oracle,
    member_absform,
    member_intervalform,
    member_rohn,
    member_shary,
    random_instance,
    vertex_oracle_k1,
)
from iqlin.charac import _cleared
from iqlin.ivcore import point_entries


class _SubFraction(Fraction):
    """A Fraction subclass: ``rat`` must not pass it through as it is."""


def _wide_system() -> GeneralizedIQSystem:
    """A 1x3 system whose coefficients near 2**31 put the int64 bound near 2**28."""
    return GeneralizedIQSystem(
        a_forall=[imat([[(0, 0), (0, 0), (-1, 1)]])],
        a_exists=[imat([[(2 ** 31, 2 ** 31 + 2), (-1, 1), (0, 3)]])],
        b_forall=[ivec([(0, 0)])],
        b_exists=[ivec([(-2 ** 30, 2 ** 30)])],
    )


def _rows_beyond_int64() -> GeneralizedIQSystem:
    """Compiled rows past int64: every point must take the per-point path."""
    huge = 10 ** 23
    return GeneralizedIQSystem(
        a_forall=[imat([[(-huge, huge), (0, 0)]])],
        a_exists=[imat([[(0, 0), (1, 2)]])],
        b_forall=[ivec([(0, 0)])],
        b_exists=[ivec([(0, 1)])],
    )


def _systems() -> list:
    rng = random.Random(2112)
    gens = [_wide_system(), _rows_beyond_int64()]
    for n in range(1, 6):
        gens.append(random_instance(InstanceSpec(m=rng.randint(1, 4), n=n, kappa=rng.randint(1, 4),
                                                 seed=rng.randrange(2 ** 31), zero_prob=0.3)))
    return gens


def assert_encoder_matches_per_point(evaluator: AbsFormEvaluator, points: list) -> None:
    """Columns, fit mask and verdicts of a batch equal the per-point path."""
    n = evaluator.gen.compiled.n
    aug, fits = evaluator._encode(points)
    columns = [_cleared(x, n) for x in points]
    # lx >= 1, so rows past int64 (bound < 1) fit no column.
    assert fits.tolist() == [max(map(abs, column)) <= evaluator._bound for column in columns]
    assert aug.dtype == np.int64 and aug.flags.c_contiguous and aug.shape == (n + 1, int(fits.sum()))
    assert aug.T.tolist() == [column for column, ok in zip(columns, fits) if ok]
    assert evaluator.member_many(points) == [member_absform(evaluator.gen, x).member for x in points]


def _seeded_entry(rng: random.Random, bound: int):
    kind = rng.randrange(9)
    if kind == 0:
        # At and just past the bound, on either sign.
        return rng.choice((1, -1)) * (max(bound, 0) + rng.randint(-1, 1))
    if kind == 1:
        return Fraction(rng.randint(-3, 3), max(bound, 1) + rng.randint(0, 1))
    if kind == 2:
        return rng.choice((2 ** 63, -2 ** 63 - 1, Fraction(1, 2 ** 63), Fraction(2 ** 64 + 1, 3),
                           Fraction(-5, 2 ** 70 + 1)))
    if kind == 3:
        return rng.choice((Fraction(-2 ** 63), Fraction(-2 ** 63, 3), Fraction(2 ** 63 - 1)))
    if kind == 4:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    if kind == 5:
        return f"{rng.randint(-9, 9)}.{rng.randint(0, 99):02d}"
    if kind == 6:
        return rng.choice((np.int64, np.int32, _SubFraction))(rng.randint(-50, 50))
    return Fraction(rng.randint(-8, 8), rng.randint(1, 6))


def test_seeded_mixed_batches():
    rng = random.Random(20261019)
    for gen in _systems():
        evaluator = AbsFormEvaluator(gen)
        n = gen.compiled.n
        for mix in (0.0, 0.5, 0.5, 0.5, 1.0):
            points = []
            for _ in range(rng.randint(0, 40)):
                if rng.random() >= mix:
                    entries = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
                else:
                    entries = [_seeded_entry(rng, evaluator._bound) for _ in range(n)]
                shape = rng.randrange(3)
                points.append(PointVector(entries) if shape == 0 else tuple(entries) if shape == 1 else entries)
            assert_encoder_matches_per_point(evaluator, points)


_EVALUATORS = [AbsFormEvaluator(gen) for gen in (_wide_system(), _rows_beyond_int64())]

_ENTRIES = st.one_of(
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.builds(Fraction, st.integers(-2 ** 30, 2 ** 30), st.integers(1, 2 ** 30)),
    st.builds(Fraction, st.integers(-2 ** 66, 2 ** 66), st.integers(1, 2 ** 66)),
    st.sampled_from([Fraction(-2 ** 63), Fraction(-2 ** 63, 3), -2 ** 63, 2 ** 63 - 1, 2 ** 63]),
    st.integers(-2 ** 30, 2 ** 30),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 99)),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.builds(_SubFraction, st.integers(-99, 99), st.integers(1, 99)),
)


@settings(max_examples=200, deadline=None)
@given(which=st.sampled_from(range(len(_EVALUATORS))),
       rows=st.lists(st.tuples(st.lists(_ENTRIES, min_size=3, max_size=3), st.booleans()), max_size=16))
def test_hypothesis_mixed_batches(which, rows):
    evaluator = _EVALUATORS[which]
    n = evaluator.gen.compiled.n
    points = [PointVector(entries[:n]) if as_vector else entries[:n] for entries, as_vector in rows]
    assert_encoder_matches_per_point(evaluator, points)


def test_fraction_layout_the_encoder_reads():
    # The encoder reads these two slots in place of the properties.
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    value = Fraction(-6, 4)
    assert (Fraction.numerator.fget(value), Fraction.denominator.fget(value)) == (value._numerator, value._denominator)
    raw = [Fraction(3, 4), _SubFraction(5, 6), np.int64(-7), np.int32(2), np.uint64(2 ** 63 + 1),
           "2/6", "-0.125", 9, -2 ** 70, Fraction(np.int64(-6), np.int64(4)),
           Fraction(np.int64(2 ** 62), np.int64(1)), Fraction(np.int32(5)), Fraction(np.uint64(2 ** 63 + 1), 3)]
    for x in (raw, tuple(raw), PointVector(raw)):
        entries = point_entries(x, len(raw))
        assert [type(v) for v in entries] == [Fraction] * len(raw)
        assert all(type(v._numerator) is int and type(v._denominator) is int for v in entries)
        assert entries == tuple(Fraction(v) for v in raw)


def test_fraction_of_numpy_integers_is_not_wrapped():
    # The only nonzero slot is a''_11 = [1, 1], so a point is a member only
    # when x_1 = 0.  2**62 * 3 wraps in int64 if the Fraction keeps its
    # numpy parts; every path must read the exact value and refuse it.
    gen = GeneralizedIQSystem(
        a_forall=[imat([[(0, 0), (0, 0)]])],
        a_exists=[imat([[(1, 1), (0, 0)]])],
        b_forall=[ivec([(0, 0)])],
        b_exists=[ivec([(0, 0)])],
    )
    x = [Fraction(np.int64(2 ** 62), np.int64(1)), Fraction(1, 3)]
    for shape in (x, tuple(x), PointVector(x)):
        for member in (member_absform, member_intervalform, member_shary, member_rohn):
            assert not member(gen, shape).member, member.__name__
        assert AbsFormEvaluator(gen).member_many([shape, [0, 1]]) == [False, True]
        for oracle in (vertex_oracle_k1, game_oracle):
            assert oracle(gen, shape).outcome is Outcome.NOT_MEMBER_CERTIFIED, oracle.__name__
