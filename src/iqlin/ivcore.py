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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

Rational = Fraction

RationalLike = Union[int, str, Fraction]

_ZERO = Rational(0)
_TWO = Rational(2)


def rat(value: RationalLike) -> Rational:
    """Coerce to an exact rational.

    Accepts ints (numpy integers included), Fractions and other exact
    rationals, and strings.  Strings may be fraction literals ("3/2",
    "-7") or decimal literals ("0.25"), both parsed exactly; binary
    floats are rejected to keep the library free of rounding
    contamination.  The result is always a Fraction of Python ints.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing to build a rational from a binary float; "
            "pass an int, a Fraction, or a string literal like '3/2' or '0.25'"
        )
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
    def point(cls, value: RationalLike) -> "Interval":
        v = rat(value)
        return cls(v, v)

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

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def scale(self, factor: RationalLike) -> "Interval":
        """Multiply by a real scalar; endpoints swap when the factor is negative."""
        k = rat(factor)
        if k >= _ZERO:
            return Interval(k * self.lo, k * self.hi)
        return Interval(k * self.hi, k * self.lo)

    def contains(self, value: RationalLike) -> bool:
        v = rat(value)
        return self.lo <= v <= self.hi

    def subset_of(self, other: "Interval") -> bool:
        """True iff every point of this interval lies in ``other``."""
        return other.lo <= self.lo and self.hi <= other.hi

    def intersects(self, other: "Interval") -> bool:
        """Nonempty intersection test: a.lo <= b.hi and b.lo <= a.hi."""
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """The intersection as an interval, or None when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


_ZERO_INTERVAL = Interval(0, 0)


def exists_shift_witness(a: Interval, b: Interval, c: Interval) -> Optional[Rational]:
    """Witness for "some shift of b by a point of c covers a".

    There is a c0 in c with a ⊆ b + c0 exactly when a ⊆ b + c and
    wid(a) <= wid(b).  When that holds, every point of
    [a.hi - b.hi, a.lo - b.lo] ∩ c is a valid shift (the width
    inequality makes the bracket a genuine interval, and the inclusion
    makes the intersection nonempty); we return its upper endpoint.
    Returns None when no shift exists.
    """
    if not (a.subset_of(b + c) and a.wid() <= b.wid()):
        return None
    lo = max(a.hi - b.hi, c.lo)
    hi = min(a.lo - b.lo, c.hi)
    assert lo <= hi, "witness bracket must meet c when the closed-form condition holds"
    return hi


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

    def abs_vec(self) -> "PointVector":
        return PointVector(abs(v) for v in self.entries)

    def pos_part(self) -> "PointVector":
        """Coordinatewise max(x, 0); x = pos_part - neg_part."""
        return PointVector(v if v > _ZERO else _ZERO for v in self.entries)

    def neg_part(self) -> "PointVector":
        """Coordinatewise max(-x, 0)."""
        return PointVector(-v if v < _ZERO else _ZERO for v in self.entries)

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

    @classmethod
    def zero(cls, m: int) -> "IntervalVector":
        return cls(_ZERO_INTERVAL for _ in range(m))

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

    @classmethod
    def zero(cls, m: int, n: int) -> "IntervalMatrix":
        return cls([[_ZERO_INTERVAL] * n for _ in range(m)])

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
