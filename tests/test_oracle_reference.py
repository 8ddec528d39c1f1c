"""Differential test: the integer game oracle against its rational reference.

``game_oracle`` searches each row game over integer contribution lists.
The reference below searches the same game over parameter values in
``Fraction`` arithmetic: it rebuilds the existential grid at every node
and divides by each move's coefficient to form the feasibility windows.
Both must return the same outcome and the same leaf count, and hit the
node cap on the same inputs.
"""

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest

from conftest import inner_exists_system, outer_exists_system
from iqlin import (
    GeneralizedIQSystem,
    InstanceSpec,
    Interval,
    NodeCapExceeded,
    OracleVerdict,
    Outcome,
    PointVector,
    Quantifier,
    game_oracle,
    random_instance,
    random_point,
    rat,
)
from iqlin.ivcore import Rational, point_entries

_ZERO = rat(0)
_MINUS_ONE = rat(-1)


class _RefBudget:
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


@dataclass
class _Move:
    quant: Quantifier
    coeff: Rational
    box: Interval


def _row_game(gen: GeneralizedIQSystem, pv: tuple, i: int) -> Tuple[Rational, List[_Move]]:
    n = gen.shape[1]
    base = _ZERO
    moves: List[_Move] = []

    def add(quant: Quantifier, coeff: Rational, box: Interval) -> None:
        nonlocal base
        if coeff == _ZERO:
            return
        if box.is_point():
            base += coeff * box.lo
        else:
            moves.append(_Move(quant, coeff, box))

    for s in range(gen.kappa, 0, -1):
        af, ae, bf, be = gen.block(s)
        for j in range(n):
            add(Quantifier.FORALL, pv[j], af.entry(i, j))
        add(Quantifier.FORALL, _MINUS_ONE, bf[i])
        for j in range(n):
            add(Quantifier.EXISTS, pv[j], ae.entry(i, j))
        add(Quantifier.EXISTS, _MINUS_ONE, be[i])
    return base, moves


def _grid(box: Interval, points: int) -> List[Rational]:
    step = box.wid() / (points - 1)
    return [box.lo + step * k for k in range(points)]


def _gridded_row_win(moves: List[_Move], idx: int, acc: Rational, grid: int, budget: _RefBudget) -> bool:
    if idx == len(moves):
        budget.spend()
        return acc == _ZERO
    move = moves[idx]
    if move.quant is Quantifier.FORALL:
        for v in (move.box.lo, move.box.hi):
            if not _gridded_row_win(moves, idx + 1, acc + move.coeff * v, grid, budget):
                return False
        return True
    for v in _grid(move.box, grid):
        if _gridded_row_win(moves, idx + 1, acc + move.coeff * v, grid, budget):
            return True
    return False


def _relaxed_row_survives(moves: List[_Move], idx: int, acc: Rational,
                          boxes: List[Optional[Interval]], budget: _RefBudget) -> bool:
    if idx == len(moves):
        budget.spend()
        lo = acc
        hi = acc
        for move, box in zip(moves, boxes):
            if move.quant is Quantifier.EXISTS:
                a, b = _hull_term(move.coeff, box)
                lo += a
                hi += b
        return lo <= _ZERO <= hi
    move = moves[idx]
    if move.quant is Quantifier.FORALL:
        for v in (move.box.lo, move.box.hi):
            if not _relaxed_row_survives(moves, idx + 1, acc + move.coeff * v, boxes, budget):
                return False
        return True
    hull_lo = _ZERO
    hull_hi = _ZERO
    for t, (other, box) in enumerate(zip(moves, boxes)):
        if t != idx and other.quant is Quantifier.EXISTS:
            a, b = _hull_term(other.coeff, box)
            hull_lo += a
            hull_hi += b
    tail_forall = [moves[t] for t in range(idx + 1, len(moves)) if moves[t].quant is Quantifier.FORALL]
    feasible = boxes[idx]
    k = move.coeff
    for choice in itertools.product(*[(mv.box.lo, mv.box.hi) for mv in tail_forall]):
        budget.spend()
        c = acc
        for mv, v in zip(tail_forall, choice):
            c += mv.coeff * v
        lo = -c - hull_hi
        hi = -c - hull_lo
        if k > _ZERO:
            window = Interval(lo / k, hi / k)
        else:
            window = Interval(hi / k, lo / k)
        lo, hi = max(feasible.lo, window.lo), min(feasible.hi, window.hi)
        if lo > hi:
            return False
        feasible = Interval(lo, hi)
    prev = boxes[idx]
    boxes[idx] = feasible
    try:
        return _relaxed_row_survives(moves, idx + 1, acc, boxes, budget)
    finally:
        boxes[idx] = prev


def ref_game_oracle(gen: GeneralizedIQSystem, x, grid: int = 5, node_cap: int = 10 ** 6) -> OracleVerdict:
    if grid < 2:
        raise ValueError("existential grid needs at least the two endpoints")
    pv = point_entries(x, gen.shape[1])
    m = gen.shape[0]
    budget = _RefBudget(node_cap)
    rows = [_row_game(gen, pv, i) for i in range(m)]
    for base, moves in rows:
        boxes: List[Optional[Interval]] = [mv.box if mv.quant is Quantifier.EXISTS else None for mv in moves]
        if not _relaxed_row_survives(moves, 0, base, boxes, budget):
            return OracleVerdict(Outcome.NOT_MEMBER_CERTIFIED, budget.spent)
    if gen.kappa == 1:
        return OracleVerdict(Outcome.MEMBER_CERTIFIED, budget.spent)
    for base, moves in rows:
        if not _gridded_row_win(moves, 0, base, grid, budget):
            return OracleVerdict(Outcome.UNKNOWN, budget.spent)
    return OracleVerdict(Outcome.MEMBER_CERTIFIED, budget.spent)


def _run(oracle, gen, x, grid, node_cap):
    try:
        return oracle(gen, x, grid=grid, node_cap=node_cap)
    except NodeCapExceeded as exc:
        return ("cap", str(exc))


_NODE_CAP = 2000


def _seeded_cases(count: int):
    rng = random.Random(20180901)
    for _ in range(count):
        spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3), kappa=rng.randint(1, 4),
                            zero_prob=rng.choice([0.3, 0.5, 0.7]),
                            max_denominator=rng.choice([1, 3, 4]),
                            seed=rng.randint(0, 10 ** 9))
        x = random_point(spec.n, rng, max_denominator=spec.max_denominator)
        x = PointVector(rat(0) if rng.random() < 0.2 else v for v in x)
        yield random_instance(spec), x, rng.choice([2, 3, 5])


def test_integer_search_matches_rational_reference():
    tally = {}
    for gen, x, grid in _seeded_cases(500):
        want = _run(ref_game_oracle, gen, x, grid, _NODE_CAP)
        got = _run(game_oracle, gen, x, grid, _NODE_CAP)
        assert got == want, (gen, x, grid)
        key = want[0] if isinstance(want, tuple) else want.outcome
        tally[key] = tally.get(key, 0) + 1
    # The sample must reach every outcome and the node cap.
    assert set(tally) == {"cap", *Outcome}, tally


@pytest.mark.parametrize("grid", [2, 3, 9])
@pytest.mark.parametrize("x", ["0", "1/8", "1/4", "1/2", "-3/2"])
def test_worked_systems_match_reference(x, grid):
    for gen in (outer_exists_system(), inner_exists_system()):
        assert game_oracle(gen, [x], grid=grid) == ref_game_oracle(gen, [x], grid=grid)
