"""Exact interval arithmetic over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` (exported as ``Rational``), so every
operation here is exact: no rounding, no outward widening, and
equalities between derived quantities are decidable.
Intervals are nonempty closed bounded segments [lo, hi] with rational
endpoints; vectors and matrices are rectangular arrays of them.

The one operation that is more than endpoint bookkeeping is the image
of a real point vector under an interval matrix (``IntervalMatrix @
PointVector``), computed in center-radius form: row i of A @ x is

    [ (mid A . x)_i - (rad A . |x|)_i , (mid A . x)_i + (rad A . |x|)_i ]

which is the exact range of {Ax : A in the matrix box}. The brute-force
cross-check by vertex enumeration lives in the oracle module.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Rational = Fraction

RationalLike = Union[int, str, Fraction]

_ZERO = Rational(0)
_TWO = Rational(2)
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def rat(value: RationalLike) -> Rational:
    """Coerce to an exact rational.

    Accepts ints (numpy integers included), Fractions and other exact
    rationals, and strings.  Strings may be fraction literals ("3/2",
    "-7") or decimal literals ("0.25"), both parsed exactly; binary
    floats are rejected to keep the library free of rounding
    contamination, and so are booleans (as JSON ``true`` in the CLI).
    The result is always a Fraction of Python ints; a Fraction of numpy
    integers is rebuilt.  A decimal exponent above ``sys.get_int_max_str_digits()``
    is refused: building 10**exponent takes time superlinear in the exponent.
    """
    if type(value) is Fraction and type(value._numerator) is int is type(value._denominator):
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(
            f"refusing to build a rational from {type(value).__name__} {value!r}; "
            "pass an int, a Fraction, or a string literal like '3/2' or '0.25'"
        )
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent.group(1))) > limit:
            raise ValueError(f"decimal exponent of {value!r} exceeds {limit} in magnitude")
    if isinstance(value, (str, int)):
        return Fraction(value)
    numerator = getattr(value, "numerator", None)
    if numerator is not None:
        return Fraction(int(numerator), int(value.denominator))
    return Fraction(value)


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [lo, hi] with rational endpoints, lo <= hi.

    Empty intervals do not exist: a constructor call with lo > hi raises
    instead of swapping, because a reversed pair is almost always a
    caller bug.  Degenerate points [t, t] are fine.
    """

    lo: Rational
    hi: Rational

    def __init__(self, lo: RationalLike, hi: RationalLike) -> None:
        lo_r = rat(lo)
        hi_r = rat(hi)
        if lo_r > hi_r:
            raise ValueError(f"interval endpoints out of order: lo={lo_r} > hi={hi_r}")
        object.__setattr__(self, "lo", lo_r)
        object.__setattr__(self, "hi", hi_r)

    @classmethod
    def zero(cls) -> "Interval":
        return _ZERO_INTERVAL

    def mid(self) -> Rational:
        return (self.lo + self.hi) / _TWO

    def rad(self) -> Rational:
        return (self.hi - self.lo) / _TWO

    def wid(self) -> Rational:
        return self.hi - self.lo

    def is_point(self) -> bool:
        return self.lo == self.hi

    def is_zero(self) -> bool:
        """True for the degenerate interval [0, 0] (the absent-slot marker)."""
        return self.lo == _ZERO and self.hi == _ZERO

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def subset_of(self, other: "Interval") -> bool:
        """True iff every point of this interval lies in ``other``."""
        return other.lo <= self.lo and self.hi <= other.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


_ZERO_INTERVAL = Interval(0, 0)


@dataclass(frozen=True)
class PointVector:
    """A real point x in Q^n, stored as a tuple of rationals."""

    entries: tuple

    def __init__(self, entries: Iterable[RationalLike]) -> None:
        object.__setattr__(self, "entries", tuple(rat(v) for v in entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Rational:
        return self.entries[i]

    def __iter__(self) -> Iterator[Rational]:
        return iter(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.entries) + ")"


PointLike = Union[PointVector, Sequence[RationalLike]]


def point_entries(x: PointLike, n: int) -> tuple:
    """The coordinates of a point of Q^n as a tuple of Fractions.

    A ``PointVector`` gives its own tuple; any other sequence goes
    through ``rat`` entry by entry, so binary floats are refused.
    Raises ValueError when the point does not have length n.
    """
    entries = x.entries if isinstance(x, PointVector) else tuple(map(rat, x))
    if len(entries) != n:
        raise ValueError(f"point has length {len(entries)}, system expects {n}")
    return entries


@dataclass(frozen=True)
class IntervalVector:
    """A box in Q^m: one interval per component."""

    entries: tuple

    def __init__(self, entries: Iterable[Interval]) -> None:
        items = tuple(entries)
        for e in items:
            if not isinstance(e, Interval):
                raise TypeError(f"IntervalVector entries must be Interval, got {type(e).__name__}")
        object.__setattr__(self, "entries", items)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Interval:
        return self.entries[i]

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.entries)

    def __add__(self, other: "IntervalVector") -> "IntervalVector":
        self._check_len(other)
        return IntervalVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "IntervalVector") -> "IntervalVector":
        self._check_len(other)
        return IntervalVector(a - b for a, b in zip(self.entries, other.entries))

    def _check_len(self, other: "IntervalVector") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError(f"vector length mismatch: {len(self.entries)} vs {len(other.entries)}")

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class IntervalMatrix:
    """A rectangular m-by-n array of intervals."""

    rows: tuple

    def __init__(self, rows: Iterable[Sequence[Interval]]) -> None:
        packed = tuple(tuple(row) for row in rows)
        if not packed:
            raise ValueError("interval matrix needs at least one row")
        width = len(packed[0])
        if width == 0:
            raise ValueError("interval matrix needs at least one column")
        for row in packed:
            if len(row) != width:
                raise ValueError("interval matrix rows must have equal length")
            for e in row:
                if not isinstance(e, Interval):
                    raise TypeError(f"IntervalMatrix entries must be Interval, got {type(e).__name__}")
        object.__setattr__(self, "rows", packed)

    @property
    def shape(self) -> tuple:
        return (len(self.rows), len(self.rows[0]))

    def entry(self, i: int, j: int) -> Interval:
        """0-based entry access."""
        return self.rows[i][j]

    def __add__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        if self.shape != other.shape:
            raise ValueError(f"matrix shape mismatch: {self.shape} vs {other.shape}")
        return IntervalMatrix(
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        )

    def __matmul__(self, x: Sequence[Rational]) -> IntervalVector:
        """Exact interval image of the point x under this matrix box.

        Row i is [c_i - s_i, c_i + s_i] with c = (mid A) x and
        s = (rad A) |x|.  Both endpoints are attained (take the vertex
        matrix whose (i, j) entry sits at mid +/- rad * sign(x_j)), so
        this is the range, not an enclosure.
        """
        m, n = self.shape
        if len(x) != n:
            raise ValueError(f"matrix has {n} columns but point has length {len(x)}")
        out = []
        for row in self.rows:
            center = _ZERO
            spread = _ZERO
            for e, xj in zip(row, x):
                center += e.mid() * xj
                spread += e.rad() * abs(xj)
            out.append(Interval(center - spread, center + spread))
        return IntervalVector(out)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"


def rational_matrix(rows: Iterable[Sequence[RationalLike]]) -> tuple:
    """Nested tuples of rationals from any nested iterable of rational-likes."""
    packed = tuple(tuple(rat(v) for v in row) for row in rows)
    if not packed or not packed[0]:
        raise ValueError("rational matrix needs at least one row and one column")
    width = len(packed[0])
    for row in packed:
        if len(row) != width:
            raise ValueError("rational matrix rows must have equal length")
    return packed


def rational_vector(values: Iterable[RationalLike]) -> tuple:
    return tuple(rat(v) for v in values)
