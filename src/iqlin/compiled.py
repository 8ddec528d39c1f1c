"""A block system's membership data compiled once into exact Python ints.

Every interval endpoint of a ``GeneralizedIQSystem`` is multiplied by
one common denominator ``denom``, so the closed forms in ``charac``
decide a point with integer multiply-adds only.  Row i of block s is
stored augmented as ``[a_i1 .. a_in, -b_i]``, so one point encoding
``(x_1*lx .. x_n*lx, lx)`` serves every row.

Rows are numbered block-major, then row-major, forall side before
exists side, and two views of the same data are kept as flat tuples:

* ``endpoints``: column by column (j = 1..n+1), the lower endpoints of
  every row, then their upper endpoints, times ``denom``.  The interval
  form reads these.
* doubled rows (``hi + lo`` and ``hi - lo`` times ``denom``, so midpoints
  and radii stay integral), row by row, ``n+1`` entries each, level-major:
  ``order`` holds, for the levels l = 1..kappa, the exists radius row
  minus the forall radius row summed over blocks 1..l (levels below
  kappa give the radius-order conditions, level kappa the center
  bound's slack); ``left`` the forall radius rows summed over blocks
  1..l for l = 1..kappa-1, which only the batch evaluator reads; and
  ``center`` the summed midpoint row (rhs negated through the
  augmentation).  The midpoint-radius form, the batch evaluator,
  ``prop2_flatten`` and the integer line solve ``line_solver`` read these.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import add, sub
from typing import NamedTuple

from .ivcore import Interval

_ZERO_RATIOS = ((0, 1), (0, 1))


class CompiledSystem(NamedTuple):
    """The integer rows of one system; see the module docstring for the layout."""

    m: int
    n: int
    kappa: int
    denom: int
    endpoints: tuple
    left: tuple
    order: tuple
    center: tuple


def compile_blocks(a_forall, a_exists, b_forall, b_exists) -> CompiledSystem:
    """Compile per-block interval matrices and vectors (block 1 innermost)."""
    kappa = len(a_forall)
    m, n = a_forall[0].shape
    width = n + 1
    block = m * width
    zero = Interval.zero()

    def ratios(e: Interval, sign: int) -> tuple:
        """(lo, hi) of sign * e as (numerator, denominator) pairs."""
        if e is zero:
            return _ZERO_RATIOS
        lo, hi = e.lo.as_integer_ratio(), e.hi.as_integer_ratio()
        return (lo, hi) if sign > 0 else ((-hi[0], hi[1]), (-lo[0], lo[1]))

    # Per side, the endpoints of the augmented rows, block-major then row-major.
    sides = [
        [pair for mat, vec in zip(mats, vecs) for row, bi in zip(mat.rows, vec)
         for pair in (*(ratios(e, 1) for e in row), ratios(bi, -1))]
        for mats, vecs in ((a_forall, b_forall), (a_exists, b_exists))
    ]
    denom = math.lcm(*{d for side in sides for pair in side for _, d in pair})
    ends = [[[num * (denom // d) for num, d in part] for part in zip(*side)] for side in sides]

    def block_prefix_sums(flat: list) -> list:
        acc = [0] * block
        out = []
        for k in range(0, kappa * block, block):
            acc = list(map(add, acc, flat[k:k + block]))
            out += acc
        return out

    all_lo, all_hi = (ends[0][k] + ends[1][k] for k in (0, 1))
    rad_f, rad_e = (list(map(sub, hi, lo)) for lo, hi in ends)
    return CompiledSystem(
        m=m, n=n, kappa=kappa, denom=denom,
        endpoints=tuple(chain.from_iterable(
            (*all_lo[j::width], *all_hi[j::width]) for j in range(width))),
        left=tuple(block_prefix_sums(rad_f)[:-block]),
        order=tuple(block_prefix_sums(list(map(sub, rad_e, rad_f)))),
        center=tuple(block_prefix_sums(list(map(sum, zip(*ends[0], *ends[1]))))[-block:]),
    )
