"""Shared builders and independent reference oracles for the test suite.

The reference evaluators here are deliberately naive (grids, vertex
enumeration, literal shape checking) so they stay independent of the
library's closed-form implementations.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import List, Tuple

import pytest

from iqlin import (
    AbsIneqSystem,
    ClassicIQSystem,
    GeneralizedIQSystem,
    Interval,
    IntervalMatrix,
    IntervalVector,
    PointVector,
    Quantifier,
    QuantifierPrefix,
    matrix_param,
    rat,
    rhs_param,
)


def ivl(lo, hi=None) -> Interval:
    return Interval(lo, lo if hi is None else hi)


def imat(rows) -> IntervalMatrix:
    return IntervalMatrix([[cell if isinstance(cell, Interval) else ivl(*cell) for cell in row] for row in rows])


def ivec(entries) -> IntervalVector:
    return IntervalVector([e if isinstance(e, Interval) else ivl(*e) for e in entries])


def pvec(*values) -> PointVector:
    return PointVector(values)


def gen_1x1(a_fa=(0, 0), a_ex=(0, 0), b_fa=(0, 0), b_ex=(0, 0), blocks=None) -> GeneralizedIQSystem:
    """One-block 1x1 system from scalar pairs (convenience for worked examples)."""
    if blocks is None:
        blocks = [(a_fa, a_ex, b_fa, b_ex)]
    return GeneralizedIQSystem(
        a_forall=[imat([[blk[0]]]) for blk in blocks],
        a_exists=[imat([[blk[1]]]) for blk in blocks],
        b_forall=[ivec([blk[2]]) for blk in blocks],
        b_exists=[ivec([blk[3]]) for blk in blocks],
    )


# The order-sensitivity pair used across the suite: an existential rhs
# [-1, 1] committed outside an adversarial matrix [1, 2] versus the
# same data with the quantifiers in plain forall-exists order.
def outer_exists_system() -> GeneralizedIQSystem:
    return gen_1x1(blocks=[((1, 2), (0, 0), (0, 0), (0, 0)),
                           ((0, 0), (0, 0), (0, 0), (-1, 1))])


def inner_exists_system() -> GeneralizedIQSystem:
    return gen_1x1(a_fa=(1, 2), b_ex=(-1, 1))


def random_prefix(rng: random.Random, m: int, n: int) -> QuantifierPrefix:
    params = [matrix_param(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    params += [rhs_param(i) for i in range(1, m + 1)]
    rng.shuffle(params)
    return QuantifierPrefix(
        m, n, [(p, rng.choice((Quantifier.FORALL, Quantifier.EXISTS))) for p in params]
    )


def random_interval(rng: random.Random, magnitude: int = 6, max_den: int = 4,
                    zero_prob: float = 0.0, point_prob: float = 0.15,
                    avoid_zero: bool = False) -> Interval:
    if not avoid_zero and rng.random() < zero_prob:
        return Interval.zero()
    while True:
        a = Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, max_den))
        if rng.random() < point_prob:
            out = Interval(a, a)
        else:
            b = Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, max_den))
            out = Interval(min(a, b), max(a, b))
        if not (avoid_zero and out.is_zero()):
            return out


def wide_exists_system(rng: random.Random, m: int, n: int, kappa: int) -> GeneralizedIQSystem:
    """A random block system whose exists slots are wider than its forall slots.

    With equal widths most solution sets are empty; radii up to 4 on the
    exists side against 1 on the forall side give sets with boundaries
    inside a box of side 8 about the origin for most seeds.
    """
    def slot(max_rad: int) -> tuple:
        if rng.random() < 0.3:
            return (0, 0)
        mid = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        rad = Fraction(rng.randint(0, max_rad), rng.randint(1, 2))
        return (mid - rad, mid + rad)

    return GeneralizedIQSystem(
        a_forall=[imat([[slot(1) for _ in range(n)] for _ in range(m)]) for _ in range(kappa)],
        a_exists=[imat([[slot(4) for _ in range(n)] for _ in range(m)]) for _ in range(kappa)],
        b_forall=[ivec([slot(1) for _ in range(m)]) for _ in range(kappa)],
        b_exists=[ivec([slot(4) for _ in range(m)]) for _ in range(kappa)],
    )


def random_classic(rng: random.Random, m: int, n: int, zero_prob: float = 0.0,
                   avoid_zero: bool = False) -> ClassicIQSystem:
    A = IntervalMatrix([
        [random_interval(rng, zero_prob=zero_prob, avoid_zero=avoid_zero) for _ in range(n)]
        for _ in range(m)
    ])
    b = IntervalVector([
        random_interval(rng, zero_prob=zero_prob, avoid_zero=avoid_zero) for _ in range(m)
    ])
    return ClassicIQSystem(A, b, random_prefix(rng, m, n))


# ---------------------------------------------------------------------------
# Independent reference oracles
# ---------------------------------------------------------------------------


def ref_prop2_absineq(gen: GeneralizedIQSystem) -> AbsIneqSystem:
    """The stacked |Cx - c| <= D|x| + d of Prop. 2, entry by entry from mid() and rad()."""
    m, n = gen.shape
    kappa = gen.kappa
    C, D, c, d = [], [], [], []
    dmat = [[rat(0)] * n for _ in range(m)]
    dvec = [rat(0)] * m
    for level in range(1, kappa + 1):
        af, ae, bf, be = gen.block(level)
        for i in range(m):
            for j in range(n):
                dmat[i][j] += ae.entry(i, j).rad() - af.entry(i, j).rad()
            dvec[i] += be[i].rad() - bf[i].rad()
        if level < kappa:
            for i in range(m):
                C.append([rat(0)] * n)
                D.append(list(dmat[i]))
                c.append(rat(0))
                d.append(dvec[i])
    for i in range(m):
        crow = [rat(0)] * n
        ci = rat(0)
        for s in range(1, kappa + 1):
            af, ae, bf, be = gen.block(s)
            for j in range(n):
                crow[j] += af.entry(i, j).mid() + ae.entry(i, j).mid()
            ci += bf[i].mid() + be[i].mid()
        C.append(crow)
        D.append(list(dmat[i]))
        c.append(ci)
        d.append(dvec[i])
    return AbsIneqSystem(C, D, c, d)


def ref_corollary1_absineq(a_fa, a_ex, b_fa, b_ex) -> AbsIneqSystem:
    """The |Cx - c| <= D|x| + d of Corollary 1 for a one-block pair system."""
    m, n = a_fa.shape
    if a_ex.shape != (m, n) or len(b_fa) != m or len(b_ex) != m:
        raise ValueError("pair system blocks must share one shape")
    C = [
        [a_fa.entry(i, j).mid() + a_ex.entry(i, j).mid() for j in range(n)]
        for i in range(m)
    ]
    D = [
        [a_ex.entry(i, j).rad() - a_fa.entry(i, j).rad() for j in range(n)]
        for i in range(m)
    ]
    c = [b_fa[i].mid() + b_ex[i].mid() for i in range(m)]
    d = [b_ex[i].rad() - b_fa[i].rad() for i in range(m)]
    return AbsIneqSystem(C, D, c, d)


def brute_valid_cut_sets(word: str) -> List[Tuple[int, ...]]:
    """All block splits of an outermost-first quantifier word that satisfy
    the AE-block shape rules, as innermost-first cumulative cut tuples.

    Literal restatement of the rules: middle blocks read A+E+ outside
    in; the innermost block may instead be all-A, the outermost all-E;
    a lone block may be any A*E*.
    """
    mu = len(word)
    results = []
    for mask in range(2 ** (mu - 1)) if mu > 1 else [0]:
        # Segment the word outermost-first at the marked gaps.
        segments = []
        start = 0
        for gap in range(mu - 1):
            if mask & (1 << gap):
                segments.append(word[start:gap + 1])
                start = gap + 1
        segments.append(word[start:])
        kappa = len(segments)
        ok = True
        for idx, seg in enumerate(segments):  # idx 0 is the outermost segment
            s = kappa - idx  # block number, innermost = 1
            proper = re.fullmatch(r"A+E+", seg) is not None
            if kappa == 1:
                ok = re.fullmatch(r"A*E*", seg) is not None and len(seg) > 0
            elif s == 1:
                ok = proper or re.fullmatch(r"A+", seg) is not None
            elif s == kappa:
                ok = proper or re.fullmatch(r"E+", seg) is not None
            else:
                ok = proper
            if not ok:
                break
        if ok:
            cuts = [0]
            for seg in reversed(segments):
                cuts.append(cuts[-1] + len(seg))
            results.append(tuple(cuts))
    return results


def brute_vertex_image(A: IntervalMatrix, x: PointVector) -> List[Tuple[Fraction, Fraction]]:
    """Componentwise min/max of V x over all vertex matrices V of A."""
    m, n = A.shape
    bounds = []
    for i in range(m):
        choices = [(A.entry(i, j).lo, A.entry(i, j).hi) for j in range(n)]
        values = []
        for combo in itertools.product(*choices):
            values.append(sum((c * x[j] for j, c in enumerate(combo)), rat(0)))
        bounds.append((min(values), max(values)))
    return bounds


@pytest.fixture
def rng() -> random.Random:
    return random.Random(987654321)
