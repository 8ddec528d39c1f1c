"""Brute-force oracles for the quantified membership formula.

These evaluators decide membership by searching the quantified game
directly, without the closed-form characterizations in ``charac`` (and
in particular without the interval shift-witness rule those rest on), so the
two can validate each other on desk-scale instances.

Structure exploited by both oracles
-----------------------------------
Every scalar parameter occurs in exactly one equation row, so the
quantified conjunction of rows splits into independent per-row games:
quantifiers over a variable distribute across conjuncts that do not
mention it.  Each row game is an alternating sequence of moves, blocks
outermost first, universal entries before existential ones inside a
block; a move adds coeff * value to the row residual (coeff is x_j for
a matrix entry, -1 for a rhs entry) and the innermost test is residual
== 0, exact over rationals.

Why universal players may be restricted to box vertices
--------------------------------------------------------
With existential moves ranging over full boxes, the set of values of
any single variable that keep the rest of the game winnable is convex:
the innermost equation is affine, existential steps project the
winning set (projection preserves convexity), and vertex-restricted
universal steps intersect finitely many convex sets.  A convex set
contains its box whenever it contains both endpoints, so checking the
vertices is exact.  Discretizing existential moves to a finite grid
only weakens that player, hence a win of the gridded game still
certifies membership.  For refutation the universal player plays
vertices only (legal choices in the real game) against an existential
player strengthened by deferral: existential values stay intervals,
each existential step narrows its interval to the values that remain
single-handedly feasible against every vertex assignment of the
remaining universal moves, and the leaf asks for interval feasibility.
Losing even that relaxed game certifies non-membership.  For one-block
systems the relaxed game is exact (all existential moves come after
all universal ones), so the verdict is never Unknown there.

Both passes search each row's *contributions* coeff * v (the vertices
of a universal move, the grid values of an existential one) rather
than the values v, and hold a deferred existential as its range of
contributions: v -> coeff * v is a bijection, so windows intersect
there without dividing by coeff.  Each row is scaled by one positive
common denominator, so the search is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Tuple

from .ivcore import Interval, IntervalMatrix, IntervalVector, PointVector, Rational, point_entries, rat
from .prefix import GeneralizedIQSystem, Quantifier

_ZERO = rat(0)
_MINUS_ONE = rat(-1)

# Both game passes recurse once per branching move, up to three interpreter
# frames each; a wider row would exhaust the default recursion limit.
MAX_ROW_MOVES = 256


class Outcome(Enum):
    MEMBER_CERTIFIED = "member-certified"
    NOT_MEMBER_CERTIFIED = "not-member-certified"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OracleVerdict:
    outcome: Outcome
    evaluations: int

    def __str__(self) -> str:
        return f"{self.outcome.value} ({self.evaluations} leaf checks)"


class NodeCapExceeded(RuntimeError):
    """Raised when an oracle would exceed its leaf-evaluation budget."""


class _Budget:
    __slots__ = ("spent", "cap")

    def __init__(self, cap: int) -> None:
        self.spent = 0
        self.cap = cap

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.cap:
            raise NodeCapExceeded(f"leaf evaluation budget of {self.cap} exceeded")


def _hull_term(coeff: Rational, box: Interval) -> Tuple[Rational, Rational]:
    a = coeff * box.lo
    b = coeff * box.hi
    return (a, b) if a <= b else (b, a)


# ---------------------------------------------------------------------------
# One-block vertex oracle
# ---------------------------------------------------------------------------


def vertex_oracle_k1(gen: GeneralizedIQSystem, x, max_forall: int = 20) -> OracleVerdict:
    """Decide one-block membership by enumerating universal box vertices.

    For each vertex assignment of the universal entries the residual
    A' x - b' is a concrete rational vector, and the existential side
    {b'' - A'' x} is, rowwise, the interval spanned by its own vertex
    values (each entry appears once, so per-row extremes add up).  The
    verdict is exact: the residual is affine in every universal entry,
    so a violated row is always witnessed at a vertex.

    Raises NodeCapExceeded when more than ``max_forall`` universal
    entries would need branching (2**max_forall vertices).
    """
    if gen.kappa != 1:
        raise ValueError("vertex oracle handles one-block systems only")
    pv = point_entries(x, gen.shape[1])
    m, n = gen.shape
    af, ae, bf, be = gen.block(1)
    branch_count = sum(
        1
        for i in range(m)
        for j in range(n)
        if not af.entry(i, j).is_point() and pv[j] != _ZERO
    ) + sum(1 for i in range(m) if not bf[i].is_point())
    if branch_count > max_forall:
        raise NodeCapExceeded(
            f"{branch_count} universal entries need branching, cap is {max_forall}"
        )
    evaluations = 0
    member = True
    for i in range(m):
        env_lo = be[i].lo
        env_hi = be[i].hi
        for j in range(n):
            lo, hi = _hull_term(pv[j], ae.entry(i, j))
            env_lo -= hi
            env_hi -= lo
        base = _ZERO
        branching: List[Tuple[Rational, Rational]] = []
        if bf[i].is_point():
            base -= bf[i].lo
        else:
            branching.append((-bf[i].lo, -bf[i].hi))
        for j in range(n):
            box = af.entry(i, j)
            xj = pv[j]
            if xj == _ZERO:
                continue
            if box.is_point():
                base += xj * box.lo
            else:
                branching.append((xj * box.lo, xj * box.hi))
        row_ok = True
        for choice in itertools.product(*branching):
            evaluations += 1
            residual = base
            for term in choice:
                residual += term
            if not (env_lo <= residual <= env_hi):
                row_ok = False
                break
        if not row_ok:
            member = False
            break
    outcome = Outcome.MEMBER_CERTIFIED if member else Outcome.NOT_MEMBER_CERTIFIED
    return OracleVerdict(outcome, evaluations)


# ---------------------------------------------------------------------------
# Alternating game oracle
# ---------------------------------------------------------------------------


class _Move(NamedTuple):
    quant: Quantifier
    contribs: List[int]


def _row_game(gen: GeneralizedIQSystem, pv: tuple, i: int, grid: int) -> Tuple[int, List[_Move]]:
    """Base residual and branching moves of row i, outermost move first.

    Moves whose contribution is forced (zero coefficient or a point
    box) fold into the base residual; this is exact for both players.
    A move lists coeff * v for v ascending over its box's vertices
    (universal) or ``grid`` uniform points (existential), all of the
    row scaled to ints by the lcm of its denominators.
    """
    n = gen.shape[1]
    base = _ZERO
    moves: List[Tuple[Quantifier, List[Rational]]] = []

    def add(quant: Quantifier, coeff: Rational, box: Interval) -> None:
        nonlocal base
        if coeff == _ZERO:
            return
        if box.is_point():
            base += coeff * box.lo
        else:
            points = 2 if quant is Quantifier.FORALL else grid
            step = box.wid() / (points - 1)
            moves.append((quant, [coeff * (box.lo + step * k) for k in range(points)]))

    for s in range(gen.kappa, 0, -1):
        af, ae, bf, be = gen.block(s)
        for j in range(n):
            add(Quantifier.FORALL, pv[j], af.entry(i, j))
        add(Quantifier.FORALL, _MINUS_ONE, bf[i])
        for j in range(n):
            add(Quantifier.EXISTS, pv[j], ae.entry(i, j))
        add(Quantifier.EXISTS, _MINUS_ONE, be[i])
    scale = math.lcm(base.denominator, *(v.denominator for _, vs in moves for v in vs))
    return (int(base * scale),
            [_Move(quant, [int(v * scale) for v in vs]) for quant, vs in moves])


def _gridded_row_win(moves: List[_Move], idx: int, acc: int, budget: _Budget) -> bool:
    if idx == len(moves):
        budget.spend()
        return acc == 0
    quant, contribs = moves[idx]
    branch = all if quant is Quantifier.FORALL else any
    return branch(_gridded_row_win(moves, idx + 1, acc + c, budget) for c in contribs)


def _relaxed_row_survives(moves: List[_Move], idx: int, acc: int,
                          ranges: list, budget: _Budget) -> bool:
    """Refutation pass: universal vertices against deferred existentials.

    ``ranges`` holds each existential move's current (lo, hi) range of
    contributions coeff * v (None for universal moves); narrowing it
    narrows the values v, with no division or sign case.  Returns False
    only when no committed existential choices could have survived, so
    a False here refutes membership.
    """
    if idx == len(moves):
        budget.spend()
        held = [r for r in ranges if r is not None]
        return acc + sum(lo for lo, _ in held) <= 0 <= acc + sum(hi for _, hi in held)
    quant, contribs = moves[idx]
    if quant is Quantifier.FORALL:
        return all(_relaxed_row_survives(moves, idx + 1, acc + c, ranges, budget) for c in contribs)
    # Existential step: intersect, over every vertex assignment of the
    # remaining universal moves, the range of single contributions that
    # keep this row feasible (other existentials relaxed to their ranges).
    others = [r for t, r in enumerate(ranges) if r is not None and t != idx]
    hull_lo = sum(lo for lo, _ in others)
    hull_hi = sum(hi for _, hi in others)
    tail_forall = [mv.contribs for mv in moves[idx + 1:] if mv.quant is Quantifier.FORALL]
    lo, hi = prev = ranges[idx]
    for choice in itertools.product(*tail_forall):
        budget.spend()
        c = acc + sum(choice)
        # Need the contribution in [-c - hull_hi, -c - hull_lo].
        lo = max(lo, -c - hull_hi)
        hi = min(hi, -c - hull_lo)
        if lo > hi:
            return False
    ranges[idx] = (lo, hi)
    try:
        return _relaxed_row_survives(moves, idx + 1, acc, ranges, budget)
    finally:
        ranges[idx] = prev


def game_oracle(gen: GeneralizedIQSystem, x, grid: int = 5, node_cap: int = 10 ** 6) -> OracleVerdict:
    """Search the alternating game; see the module docstring for semantics.

    Returns MEMBER_CERTIFIED when the gridded game is won,
    NOT_MEMBER_CERTIFIED when the vertex-universal refutation pass
    wins, UNKNOWN otherwise (possible only for two or more blocks).
    Raises NodeCapExceeded beyond ``node_cap`` leaf evaluations, or before
    any search when a row has more than ``MAX_ROW_MOVES`` branching moves.
    """
    if grid < 2:
        raise ValueError("existential grid needs at least the two endpoints")
    pv = point_entries(x, gen.shape[1])
    m = gen.shape[0]
    budget = _Budget(node_cap)
    # The refutation pass reads only range ends: build it with grid 2.
    games = [_row_game(gen, pv, i, 2) for i in range(m)]
    widest = max(len(moves) for _, moves in games)
    if widest > MAX_ROW_MOVES:
        raise NodeCapExceeded(f"{widest} moves of one row need branching, cap is {MAX_ROW_MOVES}")
    for base, moves in games:
        ranges = [None if mv.quant is Quantifier.FORALL else (min(mv.contribs), max(mv.contribs))
                  for mv in moves]
        if not _relaxed_row_survives(moves, 0, base, ranges, budget):
            return OracleVerdict(Outcome.NOT_MEMBER_CERTIFIED, budget.spent)
    if gen.kappa == 1:
        # One-block deferral is exact, so surviving it already certifies.
        return OracleVerdict(Outcome.MEMBER_CERTIFIED, budget.spent)
    for i in range(m):
        base, moves = _row_game(gen, pv, i, grid)
        if not _gridded_row_win(moves, 0, base, budget):
            return OracleVerdict(Outcome.UNKNOWN, budget.spent)
    return OracleVerdict(Outcome.MEMBER_CERTIFIED, budget.spent)


# ---------------------------------------------------------------------------
# Seeded instance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """Shape and randomness parameters for generated block systems."""

    m: int
    n: int
    kappa: int
    magnitude: int = 8
    zero_prob: float = 0.5
    seed: int = 0
    max_denominator: int = 4

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1 or self.kappa < 1:
            raise ValueError("dimensions and block count must be positive")
        if self.magnitude < 1 or self.max_denominator < 1:
            raise ValueError("magnitude and denominator bounds must be positive")
        if not (0.0 <= self.zero_prob <= 1.0):
            raise ValueError("zero-slot probability must lie in [0, 1]")


def _random_rational(rng: random.Random, magnitude: int, max_denominator: int) -> Rational:
    return Rational(rng.randint(-magnitude, magnitude), rng.randint(1, max_denominator))


def _random_interval(rng: random.Random, spec: InstanceSpec) -> Interval:
    if rng.random() < spec.zero_prob:
        return Interval.zero()
    a = _random_rational(rng, spec.magnitude, spec.max_denominator)
    b = _random_rational(rng, spec.magnitude, spec.max_denominator)
    return Interval(min(a, b), max(a, b))


def random_instance(spec: InstanceSpec) -> GeneralizedIQSystem:
    """Deterministic-by-seed random block system.

    Slots are drawn block by block (innermost first), forall matrix,
    exists matrix, forall rhs, exists rhs, each row-major; every slot
    is the zero point with probability ``zero_prob`` and otherwise an
    interval with rational endpoints of bounded numerator and
    denominator.
    """
    rng = random.Random(spec.seed)
    a_forall = []
    a_exists = []
    b_forall = []
    b_exists = []
    for _ in range(spec.kappa):
        a_forall.append(IntervalMatrix(
            [[_random_interval(rng, spec) for _ in range(spec.n)] for _ in range(spec.m)]
        ))
        a_exists.append(IntervalMatrix(
            [[_random_interval(rng, spec) for _ in range(spec.n)] for _ in range(spec.m)]
        ))
        b_forall.append(IntervalVector([_random_interval(rng, spec) for _ in range(spec.m)]))
        b_exists.append(IntervalVector([_random_interval(rng, spec) for _ in range(spec.m)]))
    return GeneralizedIQSystem(a_forall, a_exists, b_forall, b_exists)


def random_point(n: int, rng: random.Random, magnitude: int = 8, max_denominator: int = 4) -> PointVector:
    """Random rational point, drawn from the caller's stream."""
    return PointVector(_random_rational(rng, magnitude, max_denominator) for _ in range(n))
