"""Quantifier prefixes over interval system parameters and their AE-block form.

An interval system A x = b with an m-by-n interval matrix and an
m-interval right-hand side has mu = m(n+1) scalar parameters (every
matrix entry and every rhs component).  A quantifier prefix binds each
parameter once with a universal or existential quantifier, in any
order.  This module:

* represents and validates such prefixes,
* splits a prefix into its unique chain of AE-blocks (maximal segments
  that read, outside in, as "for-alls then exists"),
* regroups the system data into per-block forall/exists matrix and
  vector tuples, and checks that the regrouping is a disjoint partition
  whose slotwise sums reproduce the original data,
* reconstructs a prefix from such tuples (unique up to parameters whose
  interval is the zero point [0, 0], which cannot influence solutions).

Index conventions, owned entirely by this module
------------------------------------------------
``QuantifierPrefix.bindings`` lists bindings OUTERMOST FIRST, the order
in which the quantified formula is read.  Block numbering is the
opposite: block 1 is the INNERMOST block, block kappa the outermost,
because the membership conditions in ``charac`` take partial sums over
the innermost blocks 1..l.  ``BlockBoundaries.cuts`` stores cumulative
block sizes counted from the innermost end.  Nothing outside this
module converts between the two directions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional, Tuple

from .compiled import CompiledSystem, compile_blocks
from .ivcore import Interval, IntervalMatrix, IntervalVector


class Quantifier(Enum):
    FORALL = "A"
    EXISTS = "E"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ParamRef:
    """One scalar parameter: matrix entry a[row, col] or rhs entry b[row].

    Rows and columns are 1-based, matching the on-disk grammar
    ("A a[2,1]", "E b[3]").
    """

    kind: str  # "a" for a matrix entry, "b" for a right-hand side entry
    row: int
    col: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("a", "b"):
            raise ValueError(f"parameter kind must be 'a' or 'b', got {self.kind!r}")
        if self.kind == "a" and self.col is None:
            raise ValueError("matrix parameter needs a column index")
        if self.kind == "b" and self.col is not None:
            raise ValueError("rhs parameter must not carry a column index")

    def text(self) -> str:
        if self.kind == "a":
            return f"a[{self.row},{self.col}]"
        return f"b[{self.row}]"

    def tuple_position(self, n: int) -> int:
        """Position in the canonical row-major listing a11..a1n, b1, a21, ...

        Used only to fix a deterministic ordering when rebuilding a
        prefix from block tuples.
        """
        if self.kind == "a":
            return (self.row - 1) * (n + 1) + self.col
        return (self.row - 1) * (n + 1) + n + 1

    def __str__(self) -> str:
        return self.text()


def matrix_param(row: int, col: int) -> ParamRef:
    return ParamRef("a", row, col)


def rhs_param(row: int) -> ParamRef:
    return ParamRef("b", row)


@dataclass(frozen=True)
class QuantifierPrefix:
    """An ordered binding of every parameter of an m-by-n system, outermost first."""

    m: int
    n: int
    bindings: tuple  # tuple[(ParamRef, Quantifier), ...], outermost binding first

    def __init__(self, m: int, n: int, bindings: Iterable[Tuple[ParamRef, Quantifier]]) -> None:
        if m < 1 or n < 1:
            raise ValueError("system dimensions must be positive")
        packed = tuple((p, q) for p, q in bindings)
        seen = set()
        for p, q in packed:
            if not isinstance(q, Quantifier):
                raise TypeError(f"binding quantifier must be Quantifier, got {type(q).__name__}")
            if p.kind == "a":
                if not (1 <= p.row <= m and 1 <= p.col <= n):
                    raise ValueError(f"parameter {p} out of range for a {m}x{n} system")
            else:
                if not (1 <= p.row <= m):
                    raise ValueError(f"parameter {p} out of range for a {m}x{n} system")
            if p in seen:
                raise ValueError(f"duplicate parameter {p} in prefix")
            seen.add(p)
        # Distinct in-range parameters miss one exactly when they are too few.
        if len(packed) != m * (n + 1):
            missing = sorted(_all_params(m, n) - seen, key=lambda r: r.tuple_position(n))
            shown = ", ".join(p.text() for p in missing[:4])
            raise ValueError(f"prefix must bind every parameter; unbound: {shown}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bindings", packed)

    @property
    def mu(self) -> int:
        return len(self.bindings)

    def quantifier_word(self) -> str:
        """The quantifier letters outermost to innermost, e.g. "EEAEAA"."""
        return "".join(q.value for _, q in self.bindings)

    def __str__(self) -> str:
        return format_prefix(self)


def _all_params(m: int, n: int) -> set:
    out = set()
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            out.add(matrix_param(i, j))
        out.add(rhs_param(i))
    return out


def parse_prefix(m: int, n: int, tokens: Iterable[Tuple[Quantifier, ParamRef]]) -> QuantifierPrefix:
    """Build a prefix from (quantifier, parameter) pairs listed outermost first."""
    return QuantifierPrefix(m, n, ((p, q) for q, p in tokens))


_PARAM_RE = re.compile(r"^(?:a\[(\d+),(\d+)\]|b\[(\d+)\])$")


def parse_prefix_text(m: int, n: int, text: str) -> QuantifierPrefix:
    """Parse the whitespace token grammar: "A a[2,1] E b[3]", outermost first."""
    tokens = text.split()
    if len(tokens) % 2 != 0:
        raise ValueError("prefix text must alternate quantifier and parameter tokens")
    pairs = []
    for qtok, ptok in zip(tokens[0::2], tokens[1::2]):
        if qtok not in ("A", "E"):
            raise ValueError(f"expected quantifier token 'A' or 'E', got {qtok!r}")
        match = _PARAM_RE.match(ptok)
        if not match:
            raise ValueError(f"malformed parameter token {ptok!r} (expected a[i,j] or b[i])")
        if match.group(3) is not None:
            param = rhs_param(int(match.group(3)))
        else:
            param = matrix_param(int(match.group(1)), int(match.group(2)))
        pairs.append((Quantifier(qtok), param))
    return parse_prefix(m, n, pairs)


def format_prefix(prefix: QuantifierPrefix) -> str:
    return " ".join(f"{q.value} {p.text()}" for p, q in prefix.bindings)


@dataclass(frozen=True)
class BlockBoundaries:
    """The unique AE-block split of a prefix.

    ``cuts`` holds cumulative block sizes counted from the INNERMOST
    end: cuts[0] = 0 < cuts[1] < ... < cuts[kappa] = mu, and block s
    (1-based, innermost first) contains the quantifiers at innermost
    positions cuts[s-1]+1 .. cuts[s].
    """

    kappa: int
    cuts: tuple


def decompose_ae_blocks(prefix: QuantifierPrefix) -> BlockBoundaries:
    """Split a prefix into its chain of AE-blocks.

    Reading the prefix outside in, a new block starts exactly where a
    universal quantifier follows an existential one: blocks are the
    maximal segments of shape A*E*.  Every middle block then has at
    least one A and one E; only the innermost block may be all-A and
    only the outermost all-E.  No other placement of cuts satisfies
    those shape constraints, so the split is unique.
    """
    word = prefix.quantifier_word()
    mu = len(word)
    # Segment lengths outermost to innermost.
    seg_lengths = []
    current = 1
    for t in range(1, mu):
        if word[t - 1] == "E" and word[t] == "A":
            seg_lengths.append(current)
            current = 1
        else:
            current += 1
    seg_lengths.append(current)
    # Innermost-first cumulative positions.
    cuts = [0]
    for length in reversed(seg_lengths):
        cuts.append(cuts[-1] + length)
    return BlockBoundaries(kappa=len(seg_lengths), cuts=tuple(cuts))


def block_assignment(prefix: QuantifierPrefix, boundaries: Optional[BlockBoundaries] = None) -> tuple:
    """For each binding (in outermost-first order) its block number, innermost = 1."""
    if boundaries is None:
        boundaries = decompose_ae_blocks(prefix)
    mu = prefix.mu
    blocks = [0] * mu
    for s in range(1, boundaries.kappa + 1):
        # Innermost positions cuts[s-1]+1 .. cuts[s] map to list slice
        # [mu - cuts[s] : mu - cuts[s-1]] in outermost-first order.
        for t in range(mu - boundaries.cuts[s], mu - boundaries.cuts[s - 1]):
            blocks[t] = s
    return tuple(blocks)


def block_shapes(prefix: QuantifierPrefix, boundaries: Optional[BlockBoundaries] = None) -> tuple:
    """Quantifier word of each block read outside in, innermost block first."""
    if boundaries is None:
        boundaries = decompose_ae_blocks(prefix)
    word = prefix.quantifier_word()
    mu = len(word)
    shapes = []
    for s in range(1, boundaries.kappa + 1):
        shapes.append(word[mu - boundaries.cuts[s]: mu - boundaries.cuts[s - 1]])
    return tuple(shapes)


@dataclass(frozen=True)
class ClassicIQSystem:
    """Interval system data A, b plus a quantifier prefix over its parameters."""

    A: IntervalMatrix
    b: IntervalVector
    prefix: QuantifierPrefix

    def __post_init__(self) -> None:
        m, n = self.A.shape
        if len(self.b) != m:
            raise ValueError(f"rhs length {len(self.b)} != matrix row count {m}")
        if (self.prefix.m, self.prefix.n) != (m, n):
            raise ValueError(
                f"prefix covers a {self.prefix.m}x{self.prefix.n} system, data is {m}x{n}"
            )

    @property
    def shape(self) -> tuple:
        return self.A.shape


@dataclass(frozen=True)
class GeneralizedIQSystem:
    """Per-block forall/exists interval matrices and vectors, block 1 innermost.

    The four tuples all have length kappa >= 1; entry s-1 belongs to
    block s.  Tuples need not be disjoint: the same slot may carry
    nonzero intervals in several blocks, in which case the system is a
    genuine generalization of a prefix-built one (each occurrence is an
    independent parameter).
    """

    a_forall: tuple
    a_exists: tuple
    b_forall: tuple
    b_exists: tuple

    def __init__(
        self,
        a_forall: Iterable[IntervalMatrix],
        a_exists: Iterable[IntervalMatrix],
        b_forall: Iterable[IntervalVector],
        b_exists: Iterable[IntervalVector],
    ) -> None:
        af = tuple(a_forall)
        ae = tuple(a_exists)
        bf = tuple(b_forall)
        be = tuple(b_exists)
        if not af:
            raise ValueError("block count kappa must be at least 1")
        if not (len(af) == len(ae) == len(bf) == len(be)):
            raise ValueError("the four block tuples must have equal length")
        shape = af[0].shape
        m = shape[0]
        for mat in (*af, *ae):
            if mat.shape != shape:
                raise ValueError("all block matrices must share one shape")
        for vec in (*bf, *be):
            if len(vec) != m:
                raise ValueError("all block vectors must have the matrix row count")
        object.__setattr__(self, "a_forall", af)
        object.__setattr__(self, "a_exists", ae)
        object.__setattr__(self, "b_forall", bf)
        object.__setattr__(self, "b_exists", be)

    @cached_property
    def compiled(self) -> CompiledSystem:
        """The integer rows the closed forms read, compiled on first use."""
        return compile_blocks(self.a_forall, self.a_exists, self.b_forall, self.b_exists)

    @property
    def kappa(self) -> int:
        return len(self.a_forall)

    @property
    def shape(self) -> tuple:
        return self.a_forall[0].shape

    def block(self, s: int) -> tuple:
        """Block s (1-based, innermost first) as (A_forall, A_exists, b_forall, b_exists)."""
        if not (1 <= s <= self.kappa):
            raise IndexError(f"block index {s} out of range 1..{self.kappa}")
        return (self.a_forall[s - 1], self.a_exists[s - 1], self.b_forall[s - 1], self.b_exists[s - 1])

    def summed_a(self) -> IntervalMatrix:
        """Slotwise interval sum over all 2*kappa matrix tuples."""
        total = self.a_forall[0]
        for mat in self.a_forall[1:]:
            total = total + mat
        for mat in self.a_exists:
            total = total + mat
        return total

    def summed_b(self) -> IntervalVector:
        total = self.b_forall[0]
        for vec in self.b_forall[1:]:
            total = total + vec
        for vec in self.b_exists:
            total = total + vec
        return total


def build_tuples(sys: ClassicIQSystem) -> GeneralizedIQSystem:
    """Regroup classic system data into per-block forall/exists tuples.

    Each parameter's interval lands in exactly one of the 2*kappa slots,
    chosen by its block and quantifier; every other slot holds the zero
    point [0, 0].  Slotwise sums therefore reproduce A and b exactly,
    which ``validate_disjoint`` checks.
    """
    m, n = sys.shape
    boundaries = decompose_ae_blocks(sys.prefix)
    kappa = boundaries.kappa
    blocks = block_assignment(sys.prefix, boundaries)
    zero = Interval.zero()
    a_cells = {
        (s, q): [[zero] * n for _ in range(m)]
        for s in range(1, kappa + 1)
        for q in Quantifier
    }
    b_cells = {
        (s, q): [zero] * m
        for s in range(1, kappa + 1)
        for q in Quantifier
    }
    for (param, quant), s in zip(sys.prefix.bindings, blocks):
        if param.kind == "a":
            a_cells[(s, quant)][param.row - 1][param.col - 1] = sys.A.entry(param.row - 1, param.col - 1)
        else:
            b_cells[(s, quant)][param.row - 1] = sys.b[param.row - 1]
    return GeneralizedIQSystem(
        a_forall=(IntervalMatrix(a_cells[(s, Quantifier.FORALL)]) for s in range(1, kappa + 1)),
        a_exists=(IntervalMatrix(a_cells[(s, Quantifier.EXISTS)]) for s in range(1, kappa + 1)),
        b_forall=(IntervalVector(b_cells[(s, Quantifier.FORALL)]) for s in range(1, kappa + 1)),
        b_exists=(IntervalVector(b_cells[(s, Quantifier.EXISTS)]) for s in range(1, kappa + 1)),
    )


@dataclass(frozen=True)
class DisjointnessReport:
    """Outcome of the disjoint-partition check.

    On failure, ``param`` names the first offending slot in row-major
    order (matrix slots before the rhs slot of the same row) and
    ``reason`` says whether several blocks claimed it or the slot sums
    disagree with the target data.
    """

    ok: bool
    param: Optional[ParamRef] = None
    reason: Optional[str] = None

    def __str__(self) -> str:
        if self.ok:
            return "disjoint partition: ok"
        return f"disjoint partition violated at {self.param}: {self.reason}"


def validate_disjoint(gen: GeneralizedIQSystem, A: IntervalMatrix, b: IntervalVector) -> DisjointnessReport:
    """Check that gen's tuples disjointly partition A, b.

    Requires, slot by slot: at most one of the 2*kappa intervals is
    nonzero, and their interval sum equals the corresponding entry of A
    (resp. b) exactly.
    """
    m, n = gen.shape
    if A.shape != (m, n) or len(b) != m:
        raise ValueError("shape mismatch between block tuples and target data")
    for i in range(m):
        for j in range(n):
            slots = [mat.entry(i, j) for mat in (*gen.a_forall, *gen.a_exists)]
            report = _check_slot(slots, A.entry(i, j), matrix_param(i + 1, j + 1))
            if report is not None:
                return report
        slots = [vec[i] for vec in (*gen.b_forall, *gen.b_exists)]
        report = _check_slot(slots, b[i], rhs_param(i + 1))
        if report is not None:
            return report
    return DisjointnessReport(ok=True)


def _check_slot(slots, target: Interval, param: ParamRef) -> Optional[DisjointnessReport]:
    nonzero = [ivl for ivl in slots if not ivl.is_zero()]
    if len(nonzero) > 1:
        return DisjointnessReport(False, param, f"{len(nonzero)} blocks claim this slot")
    total = slots[0]
    for ivl in slots[1:]:
        total = total + ivl
    if total != target:
        return DisjointnessReport(False, param, f"slot sum {total} != {target}")
    return None


def recompose_prefix(gen: GeneralizedIQSystem) -> QuantifierPrefix:
    """Rebuild a quantifier prefix from disjoint block tuples.

    Inverse of ``build_tuples`` up to zero elements: every nonzero slot
    recovers its block and quantifier; slots that are [0, 0] everywhere
    carry no information and are bound existentially in the innermost
    block by convention (their placement cannot change the solution
    set).  Within a block, universals come before existentials, each
    group in row-major order.  Raises ValueError when the tuples are
    not disjoint.
    """
    report = validate_disjoint(gen, gen.summed_a(), gen.summed_b())
    if not report.ok:
        raise ValueError(f"cannot recompose a prefix: {report}")
    m, n = gen.shape
    kappa = gen.kappa
    groups = {(s, q): [] for s in range(1, kappa + 1) for q in Quantifier}
    for i in range(m):
        for j in range(n):
            _assign_slot(
                groups,
                matrix_param(i + 1, j + 1),
                [(s, mat.entry(i, j)) for s, mat in enumerate(gen.a_forall, start=1)],
                [(s, mat.entry(i, j)) for s, mat in enumerate(gen.a_exists, start=1)],
            )
        _assign_slot(
            groups,
            rhs_param(i + 1),
            [(s, vec[i]) for s, vec in enumerate(gen.b_forall, start=1)],
            [(s, vec[i]) for s, vec in enumerate(gen.b_exists, start=1)],
        )
    bindings = []
    for s in range(kappa, 0, -1):
        for quant in (Quantifier.FORALL, Quantifier.EXISTS):
            for param in sorted(groups[(s, quant)], key=lambda p: p.tuple_position(n)):
                bindings.append((param, quant))
    return QuantifierPrefix(m, n, bindings)


def _assign_slot(groups, param: ParamRef, forall_slots, exists_slots) -> None:
    for s, ivl in forall_slots:
        if not ivl.is_zero():
            groups[(s, Quantifier.FORALL)].append(param)
            return
    for s, ivl in exists_slots:
        if not ivl.is_zero():
            groups[(s, Quantifier.EXISTS)].append(param)
            return
    groups[(1, Quantifier.EXISTS)].append(param)
