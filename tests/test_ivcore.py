"""Interval scalar/vector/matrix arithmetic and its exactness guarantees."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqlin import Interval, IntervalMatrix, IntervalVector, PointVector, rat
from conftest import brute_vertex_image, imat, ivl, pvec

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    return Interval(min(a, b), max(a, b))


class TestScalars:
    def test_mid_rad_wid(self):
        a = ivl(6, 8)
        assert a.mid() == 7
        assert a.rad() == 1
        assert a.wid() == 2

    def test_wid_degenerate(self):
        assert ivl(3, 3).wid() == 0

    def test_width_additivity_example(self):
        a, b = ivl(1, 2), ivl(3, 5)
        assert (a + b).wid() == a.wid() + b.wid() == 3

    def test_add_sub_neg_scale(self):
        assert ivl(1, 2) + ivl(3, 5) == ivl(4, 7)
        assert ivl(0, 1) - ivl(0, 2) == ivl(-2, 1)

    def test_constructor_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Interval(0.1, 0.2)
        with pytest.raises(TypeError):
            rat(0.5)

    def test_string_parsing_exact(self):
        assert rat("3/2") == Fraction(3, 2)
        assert rat("0.25") == Fraction(1, 4)
        assert rat("-7") == -7

    def test_exponent_capped_at_int_string_limit(self):
        limit = sys.get_int_max_str_digits()
        assert rat(f"1e{limit}") == 10 ** limit
        assert rat(f" 25E-{limit} ") == Fraction(25, 10 ** limit)
        for text in (f"1e{limit + 1}", f"0e{limit + 1}", f"1.5E-{limit + 1}", "1e10000000"):
            with pytest.raises(ValueError, match="exponent"):
                rat(text)

    def test_numpy_scalars(self):
        value = rat(np.int64(-5))
        assert type(value) is Fraction and value == -5
        assert type(value.numerator) is int and type(value.denominator) is int
        with pytest.raises(TypeError):
            rat(np.float64(0.5))
        value = rat(Fraction(np.int64(2 ** 62), np.int64(3)))
        assert value == Fraction(2 ** 62, 3) and type(value._numerator) is int is type(value._denominator)

    def test_booleans_rejected(self):
        for flag in (True, False):
            with pytest.raises(TypeError, match="bool"):
                rat(flag)

    def test_subset(self):
        assert ivl(3, 6).subset_of(ivl(3, 7))
        assert not ivl(2, 8).subset_of(ivl(3, 7))
        assert ivl(0, 0).subset_of(ivl(-1, 1))

    @given(intervals(), intervals())
    @settings(max_examples=150, deadline=None)
    def test_width_additivity(self, a, b):
        assert (a + b).wid() == a.wid() + b.wid()

    @given(intervals(), rationals)
    @settings(max_examples=100, deadline=None)
    def test_point_shift_preserves_width(self, a, t):
        assert (a + ivl(t)).wid() == a.wid()

    @given(intervals(), intervals(), intervals())
    @settings(max_examples=100, deadline=None)
    def test_add_associative_commutative(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


class TestVectorsAndPoints:
    def test_vector_arithmetic_and_length_checks(self):
        u = IntervalVector([ivl(0, 1), ivl(2, 3)])
        v = IntervalVector([ivl(1, 1), ivl(-1, 0)])
        assert (u + v).entries == (ivl(1, 2), ivl(1, 3))
        assert (u - v).entries == (ivl(-1, 0), ivl(2, 4))
        with pytest.raises(ValueError):
            u + IntervalVector([ivl(0, 1)])


class TestMatrixPointProduct:
    def test_examples(self):
        assert (imat([[(1, 3)]]) @ pvec(-2)).entries == (ivl(-6, -2),)
        assert (imat([[(2, 4)]]) @ pvec(0)).entries == (ivl(0, 0),)
        assert (imat([[(2, 2), (-1, -1)]]) @ pvec(1, 1)).entries == (ivl(1, 1),)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            imat([[(0, 1), (0, 1)]]) @ pvec(1)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_vertex_envelope(self, data):
        m = data.draw(st.integers(1, 2), label="m")
        n = data.draw(st.integers(1, 3), label="n")
        A = IntervalMatrix([
            [data.draw(intervals()) for _ in range(n)] for _ in range(m)
        ])
        x = PointVector([data.draw(rationals) for _ in range(n)])
        product = A @ x
        bounds = brute_vertex_image(A, x)
        for i in range(m):
            lo, hi = bounds[i]
            # Every vertex value lies inside, and the endpoints are attained.
            assert product[i].lo == lo
            assert product[i].hi == hi

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            IntervalMatrix([[ivl(0, 1)], [ivl(0, 1), ivl(0, 1)]])
        with pytest.raises(ValueError):
            IntervalMatrix([])
