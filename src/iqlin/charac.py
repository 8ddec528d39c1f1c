"""Quantifier-free membership tests for interval-quantifier linear systems.

A point x belongs to the solution set of a block system
(``GeneralizedIQSystem``, block 1 innermost) exactly when two families
of conditions hold, and this module implements both equivalent forms:

interval form (``member_intervalform``)
    sum_s (A'_s x - b'_s)  is included in  sum_s (b''_s - A''_s x), and
    for every proper prefix of inner blocks l = 1..kappa-1 the
    componentwise width of the left partial sum stays below the width
    of the right partial sum.

midpoint-radius form (``member_absform``)
    with Dl_s = rad A'_s |x| + rad b'_s and Dr_s likewise for the
    exists side,   | sum_s (mid A'_s + mid A''_s) x - sum_s (mid b'_s +
    mid b''_s) | + sum_s Dl_s <= sum_s Dr_s,   plus the same prefix-sum
    ordering Dl <= Dr over inner blocks.  Cost is O(kappa * m * n)
    integer operations per point after a one-time compile of the
    system (``GeneralizedIQSystem.compiled``).

Along an axis-parallel line the midpoint-radius conditions are affine
in the free coordinate on each side of zero (Oettli & Prager, 1964),
so ``line_members`` returns the line's whole member set as at most two
exact rational intervals in O(kappa * m * n) integer operations, with
no point evaluated; ``scan2d`` solves each grid column with it.

For one-block (kappa = 1) systems these reduce to the classical Shary
inclusion and Rohn midpoint-radius characterizations of AE-solution
sets (``member_shary`` / ``member_rohn``), with the united, tolerable
and controllable solution sets as the familiar special cases.

The constructive conversions are here too: an absolute-value inequality
system |Cx - c| <= D|x| + d is realized as an AE system
(``prop1_construct``), and a kappa-block system flattens into a
stacked (kappa*m)-row AE system with identical solution set
(``prop2_flatten``); at kappa = 1 that is the reduction of a
one-block pair system (``corollary1_construct``).

Failure diagnostics are deterministic: verdicts report the first
violated condition, checking prefix-sum levels in ascending order and
then rows in ascending order (both 1-based).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain
from operator import add, attrgetter, gt, mul, sub
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from .ivcore import (
    Interval,
    IntervalMatrix,
    IntervalVector,
    PointLike,
    Rational,
    point_entries,
    rat,
    rational_matrix,
    rational_vector,
)
from .prefix import (
    ClassicIQSystem,
    GeneralizedIQSystem,
    Quantifier,
    QuantifierPrefix,
    build_tuples,
    matrix_param,
    rhs_param,
)

if TYPE_CHECKING:
    import numpy as np

_ZERO = rat(0)


class ConditionKind(Enum):
    """Which membership condition a failed verdict violated."""

    INCLUSION = "inclusion"          # interval-form inclusion, indexed by row
    WIDTH_ORDER = "width-order"      # interval-form width prefix sums, indexed by level
    CENTER_BOUND = "center-bound"    # midpoint-radius center bound, indexed by row
    RADIUS_ORDER = "radius-order"    # midpoint-radius prefix sums, indexed by level
    SHARY_INCLUSION = "shary-inclusion"  # one-block inclusion, indexed by row
    ROHN_BOUND = "rohn-bound"        # one-block midpoint-radius bound, indexed by row
    ABS_INEQ = "abs-ineq"            # direct |Cx - c| <= D|x| + d, indexed by row


@dataclass(frozen=True)
class Violation:
    kind: ConditionKind
    index: int  # 1-based row or prefix level

    def __str__(self) -> str:
        what = "level" if self.kind in (ConditionKind.WIDTH_ORDER, ConditionKind.RADIUS_ORDER) else "row"
        return f"{self.kind.value} {what} {self.index}"


@dataclass(frozen=True)
class MembershipVerdict:
    """Boolean membership plus, on failure, the first violated condition."""

    member: bool
    violated: Optional[Violation] = None

    def __post_init__(self) -> None:
        if self.member and self.violated is not None:
            raise ValueError("a member verdict cannot carry a violation")
        if not self.member and self.violated is None:
            raise ValueError("a non-member verdict must name the violated condition")

    def __bool__(self) -> bool:
        return self.member


_MEMBER = MembershipVerdict(True)

def _cleared(x: PointLike, n: int) -> list:
    """The point as the integer column (x_1 * lx, ..., x_n * lx, lx), lx the lcm of its denominators."""
    ratios = [v.as_integer_ratio() for v in point_entries(x, n)]
    lx = math.lcm(*[d for _, d in ratios])
    column = [p * (lx // d) for p, d in ratios]
    column.append(lx)
    return column


def _int64_parts(entries: list) -> tuple:
    """Numerators and denominators of Fractions as two int64 arrays; OverflowError past int64."""
    import numpy as np

    return tuple(np.fromiter(map(attrgetter(part), entries), np.int64, len(entries))
                 for part in ("numerator", "denominator"))


def _row_dots(flat: tuple, vec: list) -> list:
    """Dot product of vec with each consecutive len(vec)-long row of flat."""
    width = len(vec)
    ends = list(accumulate(map(mul, flat, vec * (len(flat) // width))))[width - 1::width]
    return list(map(sub, ends, [0, *ends]))


def member_intervalform(gen: GeneralizedIQSystem, x: PointLike) -> MembershipVerdict:
    """Membership via interval inclusion plus width prefix ordering.

    Reads the compiled integer endpoints: the lower endpoint of a row
    times x takes each entry's lower endpoint where x_j >= 0 and its
    upper endpoint where x_j < 0, the upper endpoint the reverse.  No
    midpoint or radius is formed, so this form cross-checks
    ``member_absform`` with independent arithmetic.
    """
    comp = gen.compiled
    m = comp.m
    rows = 2 * comp.kappa * m
    lo = hi = [0] * rows
    for k, xj in zip(range(0, len(comp.endpoints), 2 * rows), _cleared(x, comp.n)):
        if xj:
            lo_col, hi_col = comp.endpoints[k:k + rows], comp.endpoints[k + rows:k + 2 * rows]
            if xj < 0:
                lo_col, hi_col = hi_col, lo_col
            lo = [acc + v * xj for acc, v in zip(lo, lo_col)]
            hi = [acc + v * xj for acc, v in zip(hi, hi_col)]
    # Rows 0..half-1 hold A'_s x - b'_s and the rest A''_s x - b''_s, which is
    # -(b''_s - A''_s x); both halves run block by block, m rows per block.
    half = rows // 2
    wid = list(map(sub, hi, lo))
    lw = rw = [0] * m
    for k in range(0, half - m, m):
        lw = list(map(add, lw, wid[k:k + m]))
        rw = list(map(add, rw, wid[half + k:half + k + m]))
        if any(map(gt, lw, rw)):
            return MembershipVerdict(False, Violation(ConditionKind.WIDTH_ORDER, k // m + 1))
    for i in range(m):
        # sum_s (A'_s x - b'_s) inside sum_s (b''_s - A''_s x).
        if sum(lo[i:half:m]) + sum(hi[half + i::m]) < 0 or sum(hi[i:half:m]) + sum(lo[half + i::m]) > 0:
            return MembershipVerdict(False, Violation(ConditionKind.INCLUSION, i + 1))
    return _MEMBER


def member_absform(gen: GeneralizedIQSystem, x: PointLike) -> MembershipVerdict:
    """Membership via the midpoint-radius inequalities (absolute-value form).

    Row values are in units of 2 * denom * lx: center is the summed
    midpoint row times x minus the summed rhs midpoints, slack the
    exists radius sum minus the forall radius sum at |x|.
    """
    comp = gen.compiled
    aug = _cleared(x, comp.n)
    absx = list(map(abs, aug))
    for k, (lsum, rsum) in enumerate(zip(_row_dots(comp.left, absx), _row_dots(comp.right, absx))):
        if lsum > rsum:
            return MembershipVerdict(False, Violation(ConditionKind.RADIUS_ORDER, k // comp.m + 1))
    for i, (center, slack) in enumerate(zip(_row_dots(comp.center, aug), _row_dots(comp.slack, absx)), start=1):
        if abs(center) > slack:
            return MembershipVerdict(False, Violation(ConditionKind.CENTER_BOUND, i))
    return _MEMBER


def _half_line(constraints, scale: int) -> Optional[tuple]:
    """The t >= 0 with alpha * scale * t + beta >= 0 for every (alpha, beta).

    Returns (lo, hi) as Fractions, hi None when t is unbounded, or None
    when no t >= 0 solves them all.
    """
    lo_num, lo_den, hi = 0, 1, None
    for alpha, beta in constraints:
        if alpha > 0:
            if -beta * lo_den > lo_num * alpha:
                lo_num, lo_den = -beta, alpha
        elif alpha < 0:
            if hi is None or beta * hi[1] < -alpha * hi[0]:
                hi = (beta, -alpha)
        elif beta < 0:
            return None
    if hi is None:
        return Rational(lo_num, lo_den * scale), None
    if hi[0] * lo_den < lo_num * hi[1]:
        return None
    return Rational(lo_num, lo_den * scale), Rational(hi[0], hi[1] * scale)


def line_members(gen: GeneralizedIQSystem, x: PointLike, axis: int) -> List[tuple]:
    """The exact member set of the line through x parallel to coordinate ``axis``.

    Every coordinate but x[axis] (0-based; its own value is ignored)
    stays fixed.  Returns at most two disjoint closed intervals
    ``(lo, hi)`` in ascending order, Fraction ends, None for an
    unbounded end; a point of the line is a member (``member_absform``)
    exactly when its x[axis] lies in one of them.

    With t = |x[axis]| and the sign of x[axis] fixed, each compiled
    midpoint-radius condition is affine in t, the orthant linearity of
    Oettli & Prager, "Compatibility of approximate solution of linear
    equations with given error bounds for coefficients and right-hand
    sides", Numer. Math. 6 (1964): every radius-order row
    (right - left) . |aug| >= 0 and both halves of every center row
    slack . |aug| -+ center . aug >= 0 become alpha * t + beta >= 0.
    Each half-axis is then one interval of t, and the two share t = 0,
    where they are merged.  Cost: O(kappa * m * (n+1)) integer
    operations; only the interval ends are Fractions.
    """
    comp = gen.compiled
    width = comp.n + 1
    if not 0 <= axis < comp.n:
        raise ValueError(f"axis {axis} is outside 0..{comp.n - 1}")
    entries = list(point_entries(x, comp.n))
    entries[axis] = _ZERO
    # The other coordinates cleared by lx; the axis entry is then t * lx.
    aug = _cleared(entries, comp.n)
    lx = aug[-1]
    absx = list(map(abs, aug))
    spread = list(map(sub, comp.right, comp.left))
    order = list(zip(spread[axis::width], _row_dots(spread, absx)))
    center = list(zip(comp.center[axis::width], _row_dots(comp.center, aug)))
    slack = list(zip(comp.slack[axis::width], _row_dots(comp.slack, absx)))
    pos, neg = (_half_line(order + [(s_a - k * sign * c_a, s_b - k * c_b)
                                    for (c_a, c_b), (s_a, s_b) in zip(center, slack) for k in (1, -1)], lx)
                for sign in (1, -1))
    if neg is not None:
        neg = (None if neg[1] is None else -neg[1], -neg[0])
        # Both halves hold x[axis] = 0 or neither does; if both, they meet there.
        if pos is not None and neg[1] == pos[0]:
            return [(neg[0], pos[1])]
    return [half for half in (neg, pos) if half is not None]


# ---------------------------------------------------------------------------
# One-block (AE) characterizations
# ---------------------------------------------------------------------------


def member_shary_blocks(
    a_fa: IntervalMatrix,
    a_ex: IntervalMatrix,
    b_fa: IntervalVector,
    b_ex: IntervalVector,
    x: PointLike,
) -> MembershipVerdict:
    """Shary inclusion for a one-block pair system: A' x - b'  inside  b'' - A'' x."""
    m, n = a_fa.shape
    pv = point_entries(x, n)
    lhs = a_fa @ pv - b_fa
    rhs = b_ex - a_ex @ pv
    for i in range(m):
        if not lhs[i].subset_of(rhs[i]):
            return MembershipVerdict(False, Violation(ConditionKind.SHARY_INCLUSION, i + 1))
    return _MEMBER


def member_rohn_blocks(
    a_fa: IntervalMatrix,
    a_ex: IntervalMatrix,
    b_fa: IntervalVector,
    b_ex: IntervalVector,
    x: PointLike,
) -> MembershipVerdict:
    """Rohn midpoint-radius bound for a one-block pair system.

    | (mid A' + mid A'') x - (mid b' + mid b'') |
        <= (rad A'' - rad A') |x| + rad b'' - rad b'   componentwise.
    """
    m, n = a_fa.shape
    pv = point_entries(x, n)
    for i in range(m):
        center = -(b_fa[i].mid() + b_ex[i].mid())
        slack = b_ex[i].rad() - b_fa[i].rad()
        fa_row = a_fa.rows[i]
        ex_row = a_ex.rows[i]
        for j in range(n):
            xj = pv[j]
            center += (fa_row[j].mid() + ex_row[j].mid()) * xj
            slack += (ex_row[j].rad() - fa_row[j].rad()) * abs(xj)
        if abs(center) > slack:
            return MembershipVerdict(False, Violation(ConditionKind.ROHN_BOUND, i + 1))
    return _MEMBER


@dataclass(frozen=True)
class AESystem:
    """An interval system with one quantifier per parameter, all-foralls-outside.

    ``alpha`` assigns a quantifier to each matrix entry, ``beta`` to
    each rhs entry.  The induced forall/exists split substitutes the
    zero point [0, 0] for entries bound by the other quantifier.
    """

    A: IntervalMatrix
    b: IntervalVector
    alpha: tuple  # tuple[tuple[Quantifier, ...], ...], shape m x n
    beta: tuple   # tuple[Quantifier, ...], length m

    def __init__(self, A: IntervalMatrix, b: IntervalVector,
                 alpha: Iterable[Sequence[Quantifier]], beta: Iterable[Quantifier]) -> None:
        m, n = A.shape
        alpha_t = tuple(tuple(row) for row in alpha)
        beta_t = tuple(beta)
        if len(b) != m:
            raise ValueError("rhs length must match matrix row count")
        if len(alpha_t) != m or any(len(row) != n for row in alpha_t):
            raise ValueError("alpha must have the matrix shape")
        if len(beta_t) != m:
            raise ValueError("beta must have the rhs length")
        for row in alpha_t:
            for q in row:
                if not isinstance(q, Quantifier):
                    raise TypeError("alpha entries must be Quantifier")
        for q in beta_t:
            if not isinstance(q, Quantifier):
                raise TypeError("beta entries must be Quantifier")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha_t)
        object.__setattr__(self, "beta", beta_t)

    @classmethod
    def uniform(cls, A: IntervalMatrix, b: IntervalVector,
                matrix_quant: Quantifier, rhs_quant: Quantifier) -> "AESystem":
        m, n = A.shape
        return cls(A, b, [[matrix_quant] * n for _ in range(m)], [rhs_quant] * m)

    @property
    def shape(self) -> tuple:
        return self.A.shape

    def split(self) -> tuple:
        """(A_forall, A_exists, b_forall, b_exists) with zero points in the off slots."""
        return self._split

    @cached_property
    def _split(self) -> tuple:
        # Universals bound outermost make one A*E* block, so block 1 is the whole split.
        return build_tuples(ae_as_classic(self)).block(1)


def ae_as_classic(ae: AESystem) -> ClassicIQSystem:
    """An AE system as a classic document: universals outermost, row-major."""
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


def member_shary(ae: AESystem, x: PointLike) -> MembershipVerdict:
    return member_shary_blocks(*ae.split(), x)


def member_rohn(ae: AESystem, x: PointLike) -> MembershipVerdict:
    return member_rohn_blocks(*ae.split(), x)


def member_united(A: IntervalMatrix, b: IntervalVector, x: PointLike) -> MembershipVerdict:
    """Some matrix in A and some rhs in b solve exactly at x."""
    return member_rohn(AESystem.uniform(A, b, Quantifier.EXISTS, Quantifier.EXISTS), x)


def member_tolerable(A: IntervalMatrix, b: IntervalVector, x: PointLike) -> MembershipVerdict:
    """Every matrix in A lands Ax inside b (for a suitable rhs per matrix)."""
    return member_rohn(AESystem.uniform(A, b, Quantifier.FORALL, Quantifier.EXISTS), x)


def member_controllable(A: IntervalMatrix, b: IntervalVector, x: PointLike) -> MembershipVerdict:
    """Every rhs in b is reached by some matrix in A at x."""
    return member_rohn(AESystem.uniform(A, b, Quantifier.EXISTS, Quantifier.FORALL), x)


# ---------------------------------------------------------------------------
# Absolute-value inequality systems and the constructive conversions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsIneqSystem:
    """The inequality system |Cx - c| <= D|x| + d with rational data."""

    C: tuple
    D: tuple
    c: tuple
    d: tuple

    def __init__(self, C, D, c, d) -> None:
        C_t = rational_matrix(C)
        D_t = rational_matrix(D)
        c_t = rational_vector(c)
        d_t = rational_vector(d)
        m = len(C_t)
        n = len(C_t[0])
        if len(D_t) != m or len(D_t[0]) != n or len(c_t) != m or len(d_t) != m:
            raise ValueError("abs-inequality system blocks must share one shape")
        object.__setattr__(self, "C", C_t)
        object.__setattr__(self, "D", D_t)
        object.__setattr__(self, "c", c_t)
        object.__setattr__(self, "d", d_t)

    @property
    def shape(self) -> tuple:
        return (len(self.C), len(self.C[0]))


def member_absineq(sys: AbsIneqSystem, x: PointLike) -> MembershipVerdict:
    """Direct rowwise evaluation of |Cx - c| <= D|x| + d."""
    m, n = sys.shape
    pv = point_entries(x, n)
    for i in range(m):
        lhs = -sys.c[i]
        rhs = sys.d[i]
        for j in range(n):
            lhs += sys.C[i][j] * pv[j]
            rhs += sys.D[i][j] * abs(pv[j])
        if abs(lhs) > rhs:
            return MembershipVerdict(False, Violation(ConditionKind.ABS_INEQ, i + 1))
    return _MEMBER


def prop1_construct(sys: AbsIneqSystem) -> AESystem:
    """Realize |Cx - c| <= D|x| + d as an AE system with identical solution set.

    The interval data is the center-radius box [C - |D|, C + |D|],
    [c - |d|, c + |d|]; an entry is existential when its D (resp. d)
    coefficient is >= 0 and universal when negative, so the split radii
    recover the positive and negative parts of D and d.
    """
    m, n = sys.shape
    rows = []
    alpha = []
    for i in range(m):
        row = []
        arow = []
        for j in range(n):
            spread = abs(sys.D[i][j])
            row.append(Interval(sys.C[i][j] - spread, sys.C[i][j] + spread))
            arow.append(Quantifier.EXISTS if sys.D[i][j] >= _ZERO else Quantifier.FORALL)
        rows.append(row)
        alpha.append(arow)
    bvec = []
    beta = []
    for i in range(m):
        spread = abs(sys.d[i])
        bvec.append(Interval(sys.c[i] - spread, sys.c[i] + spread))
        beta.append(Quantifier.EXISTS if sys.d[i] >= _ZERO else Quantifier.FORALL)
    return AESystem(IntervalMatrix(rows), IntervalVector(bvec), alpha, beta)


def corollary1_construct(
    a_fa: IntervalMatrix,
    a_ex: IntervalMatrix,
    b_fa: IntervalVector,
    b_ex: IntervalVector,
) -> AESystem:
    """AE system equivalent to a one-block pair system.

    This is ``prop2_flatten`` at kappa = 1: C = mid A' + mid A'',
    D = rad A'' - rad A', c = mid b' + mid b'', d = rad b'' - rad b'
    plugged into ``prop1_construct``.  Blocks of mismatched shape
    raise ValueError.
    """
    return prop2_flatten(GeneralizedIQSystem((a_fa,), (a_ex,), (b_fa,), (b_ex,)))


def prop2_flatten(gen: GeneralizedIQSystem) -> AESystem:
    """Flatten a kappa-block system into a (kappa*m)-row AE system.

    The first kappa-1 row groups encode the radius prefix-sum
    inequalities (zero centers), the last group the full center bound;
    ``prop1_construct`` then turns the stacked |Cx - c| <= D|x| + d
    into quantified interval data.  Membership in the result matches
    ``member_absform`` on the input for every point.  The rows are the
    compiled doubled rows divided by 2 * denom.
    """
    comp = gen.compiled
    n, width = comp.n, comp.n + 1
    inner = (comp.kappa - 1) * comp.m
    scale = 2 * comp.denom

    def rows(flat) -> list:
        return [[Rational(v, scale) for v in flat[k:k + width]] for k in range(0, len(flat), width)]

    # Prefix sums of [rad A'' - rad A' | rad b'' - rad b'] over inner blocks, then all blocks.
    spread = rows([*map(sub, comp.right, comp.left), *comp.slack])
    center = rows(comp.center)
    C = [[_ZERO] * n] * inner + [row[:n] for row in center]
    c = [_ZERO] * inner + [-row[n] for row in center]
    return prop1_construct(AbsIneqSystem(C, [row[:n] for row in spread], c, [row[n] for row in spread]))


# ---------------------------------------------------------------------------
# Batched midpoint-radius evaluation
# ---------------------------------------------------------------------------


class AbsFormEvaluator:
    """Amortized midpoint-radius membership for many points of one system.

    The evaluator copies the system's compiled doubled rows into int64
    arrays, divided by the gcd of all their entries: for each of the
    kappa-1 ordering levels the prefix-summed radius rows of both
    quantifier sides, plus the full radius-slack row (exists minus
    forall) and the summed center row.  A batch of points is encoded
    with numpy into cleared integer columns and decided in exact
    integer arithmetic, 2 * kappa * m * (n+1) multiply-adds per point.
    The encoder masks each point whose cleared column exceeds the
    conservative overflow bound; those points alone are decided by
    ``member_absform``, so verdicts always equal it.  Rows too large
    for that bound even at a unit point are never converted to int64,
    and every point of such a system takes the per-point path.

    numpy is imported on first use, when an evaluator is built, so
    importing ``iqlin`` and running the per-point commands never load it.
    """

    # Tile width of the batch kernel (keeps per-tile products cache resident).
    _TILE = 2048

    def __init__(self, gen: GeneralizedIQSystem) -> None:
        import numpy as np

        self.gen = gen
        comp = gen.compiled
        self._n, self._kappa = comp.n, comp.kappa
        rows = (comp.left, comp.right, comp.slack, comp.center)
        # One common factor out of every row leaves each inequality intact.
        common = math.gcd(*chain.from_iterable(rows)) or 1
        rows = [[v // common for v in flat] for flat in rows]
        coeff_max = max(1, max(map(abs, chain.from_iterable(rows))))
        # The largest encoded entry magnitude the overflow bound accepts.
        # Each accumulated row value is at most coeff * (n+1) * max|entry| in
        # magnitude; factor 2 leaves headroom for the comparisons.
        self._bound = (2 ** 62 - 1) // (2 * coeff_max * (comp.n + 1))
        self._left = self._right = self._slack = self._center = None
        if self._fits(1):
            self._left, self._right, self._slack, self._center = [
                np.array(flat, dtype=np.int64).reshape(-1, comp.n + 1) for flat in rows
            ]

    def _fits(self, max_abs: int) -> bool:
        """The overflow bound for encoded entries of magnitude at most max_abs."""
        return max_abs <= self._bound

    def _encode(self, points: Sequence[PointLike]) -> tuple:
        """The cleared int64 columns of the points that fit, and the fit mask.

        Each point becomes the column (x * lx, lx) with lx the positive
        lcm of its denominators, equal to ``_cleared``; that leaves every
        membership inequality unchanged.  ``fits[i]`` says whether every
        entry of point i's column is within the overflow bound, and
        ``aug`` holds the columns of the fitting points in order, as a
        C-contiguous (n+1) x fits.sum() array for the kernel's tiles.
        Every product is checked before it is formed, so no lane wraps.
        """
        import numpy as np

        n, bound, count = self._n, self._bound, len(points)
        flat = [v for x in points for v in point_entries(x, n)]
        # Rows beyond int64 (see __init__) fit no point.
        fits = np.full(count, self._fits(1))
        try:
            num, den = _int64_parts(flat)
        except OverflowError:
            # Some numerator or denominator is beyond int64: its point cannot
            # fit, and its entries are read as 0.
            narrow = [-2 ** 63 <= v.numerator < 2 ** 63 and v.denominator < 2 ** 63 for v in flat]
            fits &= np.array(narrow, dtype=np.bool_).reshape(count, n).all(axis=1)
            num, den = _int64_parts([v if ok else _ZERO for v, ok in zip(flat, narrow)])
        # One row per coordinate and one lane per point, the last row lx;
        # each read is dropped once copied, which keeps peak memory down.
        del flat
        aug = np.empty((n + 1, count), dtype=np.int64)
        aug[:n] = num.reshape(count, n).T
        del num
        den = den.reshape(count, n).T
        lx = aug[n]
        lx.fill(1)
        for d in den:
            step = d // np.gcd(lx, d)
            fits &= lx <= bound // step
            lx *= np.where(fits, step, 1)
        # A masked lane's lx need not be a multiple of its denominators.
        den[:, ~fits] = 1
        scale = np.floor_divide(lx, den, out=den)
        limit = bound // scale
        fits &= ((-limit <= aug[:n]) & (aug[:n] <= limit)).all(axis=0)
        # Masked lanes are zeroed, so no product below can wrap.
        aug[:n, ~fits] = 0
        aug[:n] *= scale
        return (aug if fits.all() else aug.compress(fits, axis=1)), fits

    def encode_points(self, points: Sequence[PointLike]) -> Optional[np.ndarray]:
        """Clear point denominators into an int64 array for ``member_batch``.

        The columns of ``_encode`` when every point fits the overflow
        bound; None when some point does not, for an empty batch, and
        for rows beyond int64.
        """
        aug, fits = self._encode(points)
        return aug if fits.size and fits.all() else None

    def member_many(self, points: Sequence[PointLike]) -> List[bool]:
        """One membership verdict per point, equal to ``member_absform``'s."""
        import numpy as np

        aug, fits = self._encode(points)
        verdicts = np.zeros(len(points), dtype=np.bool_)
        verdicts[fits] = self.member_batch(aug)
        for i in np.flatnonzero(~fits):
            verdicts[i] = member_absform(self.gen, points[i]).member
        return verdicts.tolist()

    def member_batch(self, aug: np.ndarray) -> np.ndarray:
        """Exact int64 membership kernel for an encoded batch.

        Returns a boolean array, one verdict per point column.  Exactly
        2 * kappa * m * (n+1) integer multiply-adds per point, in tiles
        so per-tile products stay cache resident; the caller has already
        certified (via ``_encode``'s fit mask) that no intermediate can
        overflow, so 64-bit wraparound cannot occur.
        """
        import numpy as np

        count = aug.shape[1]
        out = np.empty(count, dtype=np.bool_)
        for start in range(0, count, self._TILE):
            chunk = aug[:, start:start + self._TILE]
            absx = np.abs(chunk)
            ok = (np.abs(self._center @ chunk) <= self._slack @ absx).all(axis=0)
            if self._kappa > 1:
                ok &= (self._left @ absx <= self._right @ absx).all(axis=0)
            out[start:start + self._TILE] = ok
        return out
