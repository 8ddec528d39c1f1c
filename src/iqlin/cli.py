"""Command-line front end and the JSON system-document format.

Documents are JSON objects with ``"format": "iqlin-system"`` and
``"version": 1``.  Three kinds exist:

classic
    ``{"kind": "classic", "m", "n", "A", "b", "prefix"}`` where A is an
    m x n array of two-element ``[lo, hi]`` arrays, b an m-array of the
    same, and prefix the token grammar "A a[1,1] E b[1]" (outermost
    binding first).

generalized
    ``{"kind": "generalized", "m", "n", "kappa", "blocks": [...]}``
    with blocks listed INNERMOST FIRST, each block an object with
    ``a_forall``, ``a_exists`` (m x n interval arrays) and
    ``b_forall``, ``b_exists`` (m interval arrays).

absineq
    ``{"kind": "absineq", "C", "D", "c", "d"}``, the inequality system
    |Cx - c| <= D|x| + d: C a nonempty m x n array of scalars with
    n >= 1, D of the same shape, c and d arrays of m scalars.

``version``, ``m``, ``n`` and ``kappa`` must be JSON integers (1.0 is
rejected, like true).  All scalars serialize as strings ("3/2", "-7",
"0.25") and parse exactly; JSON number literals are also read exactly
(decimal literals through ``rat``, never through binary floating point).
A decimal exponent above Python's int string limit (4300 by default)
is refused.

Exit codes: 0 success / all points member; 1 some checked point is not
a member; 2 usage, parse, or resource errors; 3 internal cross-check
failure (methods disagreed, or a conversion failed its spot check).
Each command builds its whole output before ``main`` writes it, so on
exit 2 stdout is empty and no ``--output`` file is written.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

from .charac import (
    AbsIneqSystem,
    line_solver,
    member_absform,
    member_absineq,
    member_intervalform,
    member_rohn,
    member_shary,
    prop1_construct,
    prop2_flatten,
)
from .ivcore import Interval, IntervalMatrix, IntervalVector, PointVector, rat
from .oracle import InstanceSpec, NodeCapExceeded, Outcome, game_oracle, random_instance, random_point
from .prefix import (
    ClassicIQSystem,
    GeneralizedIQSystem,
    block_shapes,
    build_tuples,
    format_prefix,
    parse_prefix_text,
    recompose_prefix,
    validate_disjoint,
)

FORMAT_NAME = "iqlin-system"
FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_NOT_MEMBER = 1
EXIT_USAGE = 2
EXIT_CROSS_CHECK = 3

# The largest grid side scan2d accepts; its output has resolution**2 cells.
MAX_SCAN_RESOLUTION = 2000
# The most existential grid points per parameter check's oracle accepts.
MAX_ORACLE_GRID = 10 ** 4
# The most interval slots, 2*kappa*m*(n+1), gen writes.
MAX_GEN_SLOTS = 10 ** 6
# The largest oracle leaf-evaluation budget check accepts (about 30 s).
MAX_NODE_CAP = 10 ** 8

SystemLike = Union[ClassicIQSystem, GeneralizedIQSystem, AbsIneqSystem]


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Document parsing and emission
# ---------------------------------------------------------------------------


def _scalar(value) -> object:
    """Exact rational from a JSON scalar (string, int, or decimal literal)."""
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise CliError(f"expected a rational scalar, got {value!r}")
    return _rational(value)


def _rational(value) -> object:
    """Exact rational from a string or int; a malformed one is a usage error."""
    try:
        return rat(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse rational {value!r}: {exc}") from exc


def _interval(value) -> Interval:
    if not (isinstance(value, list) and len(value) == 2):
        raise CliError(f"expected a two-element [lo, hi] array, got {value!r}")
    return Interval(_scalar(value[0]), _scalar(value[1]))


def _matrix(value, m: int, n: int, label: str, item=_interval) -> list:
    """An m x n JSON array read entry by entry with ``item``."""
    if not (isinstance(value, list) and len(value) == m and all(isinstance(r, list) and len(r) == n for r in value)):
        raise CliError(f"{label} must be an {m}x{n} array")
    return [[item(e) for e in row] for row in value]


def _vector(value, m: int, label: str, item=_interval) -> list:
    """An m-long JSON array read entry by entry with ``item``."""
    if not (isinstance(value, list) and len(value) == m):
        raise CliError(f"{label} must be an array of length {m}")
    return [item(e) for e in value]


def _is_int(value) -> bool:
    """A JSON integer: not a boolean and not a decimal such as 1.0."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_system(doc) -> SystemLike:
    if not isinstance(doc, dict):
        raise CliError("system document must be a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise CliError(f'system document must declare "format": "{FORMAT_NAME}"')
    if not _is_int(doc.get("version")) or doc.get("version") != FORMAT_VERSION:
        raise CliError(f"unsupported document version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind == "classic":
        m, n = _dims(doc)
        A = IntervalMatrix(_matrix(doc.get("A"), m, n, "A"))
        b = IntervalVector(_vector(doc.get("b"), m, "b"))
        prefix_text = doc.get("prefix")
        if not isinstance(prefix_text, str):
            raise CliError("classic document needs a prefix string")
        return ClassicIQSystem(A, b, parse_prefix_text(m, n, prefix_text))
    if kind == "generalized":
        m, n = _dims(doc)
        blocks = doc.get("blocks")
        kappa = doc.get("kappa")
        if not (isinstance(blocks, list) and blocks):
            raise CliError("generalized document needs a nonempty blocks array")
        if not _is_int(kappa) or kappa != len(blocks):
            raise CliError("kappa must equal the number of blocks")
        a_fa, a_ex, b_fa, b_ex = [], [], [], []
        for idx, blk in enumerate(blocks, start=1):
            if not isinstance(blk, dict):
                raise CliError(f"block {idx} must be an object")
            a_fa.append(IntervalMatrix(_matrix(blk.get("a_forall"), m, n, f"block {idx} a_forall")))
            a_ex.append(IntervalMatrix(_matrix(blk.get("a_exists"), m, n, f"block {idx} a_exists")))
            b_fa.append(IntervalVector(_vector(blk.get("b_forall"), m, f"block {idx} b_forall")))
            b_ex.append(IntervalVector(_vector(blk.get("b_exists"), m, f"block {idx} b_exists")))
        return GeneralizedIQSystem(a_fa, a_ex, b_fa, b_ex)
    if kind == "absineq":
        C = doc.get("C")
        if not (isinstance(C, list) and C and isinstance(C[0], list) and C[0]):
            raise CliError("absineq document needs a nonempty matrix C")
        m, n = len(C), len(C[0])
        return AbsIneqSystem(
            _matrix(C, m, n, "C", _scalar),
            _matrix(doc.get("D"), m, n, "D", _scalar),
            _vector(doc.get("c"), m, "c", _scalar),
            _vector(doc.get("d"), m, "d", _scalar),
        )
    raise CliError(f"unknown system kind {kind!r}")


def _dims(doc) -> Tuple[int, int]:
    m = doc.get("m")
    n = doc.get("n")
    if not all(_is_int(v) and v >= 1 for v in (m, n)):
        raise CliError("document needs positive integer dimensions m and n")
    return m, n


def _interval_json(ivl: Interval) -> list:
    return [str(ivl.lo), str(ivl.hi)]


def _matrix_json(mat: IntervalMatrix) -> list:
    return [[_interval_json(e) for e in row] for row in mat.rows]


def _vector_json(vec: IntervalVector) -> list:
    return [_interval_json(e) for e in vec]


def classic_document(sys: ClassicIQSystem) -> dict:
    m, n = sys.shape
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "classic",
        "m": m,
        "n": n,
        "A": _matrix_json(sys.A),
        "b": _vector_json(sys.b),
        "prefix": format_prefix(sys.prefix),
    }


def generalized_document(gen: GeneralizedIQSystem) -> dict:
    m, n = gen.shape
    blocks = []
    for s in range(1, gen.kappa + 1):
        af, ae, bf, be = gen.block(s)
        blocks.append({
            "a_forall": _matrix_json(af),
            "a_exists": _matrix_json(ae),
            "b_forall": _vector_json(bf),
            "b_exists": _vector_json(be),
        })
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": "generalized",
        "m": m,
        "n": n,
        "kappa": gen.kappa,
        "block_order": "innermost-first",
        "blocks": blocks,
    }


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=rat)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"{path} is nested too deeply") from exc


def load_system(path: str) -> SystemLike:
    return parse_system(load_document(path))


def _lines(lines: List[str]) -> str:
    """The lines, each ending in a newline."""
    return "\n".join(lines + [""])


def as_generalized(system: SystemLike) -> GeneralizedIQSystem:
    if isinstance(system, ClassicIQSystem):
        return build_tuples(system)
    if isinstance(system, GeneralizedIQSystem):
        return system
    raise CliError("this command expects a classic or generalized system document")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _parse_point(text: str, n: int) -> PointVector:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise CliError(f"point {text!r} has {len(parts)} coordinates, system expects {n}")
    return PointVector(map(_rational, parts))


def _load_points(path: str, n: int) -> List[PointVector]:
    doc = load_document(path)
    if isinstance(doc, dict):
        doc = doc.get("points")
    if not isinstance(doc, list):
        raise CliError("points file must be a JSON list (or an object with a points list)")
    points = []
    for entry in doc:
        if not (isinstance(entry, list) and len(entry) == n):
            raise CliError(f"each point must be a list of {n} scalars, got {entry!r}")
        points.append(PointVector(_scalar(v) for v in entry))
    return points


_METHODS = ("abs", "interval", "shary", "rohn", "oracle", "all")


def _run_method(method: str, gen: GeneralizedIQSystem, point: PointVector,
                grid: int, node_cap: int) -> Tuple[str, Optional[bool]]:
    """Verdict text and boolean (None when the oracle answers unknown)."""
    if method == "shary":
        verdict = member_shary(gen, point)
    elif method == "rohn":
        verdict = member_rohn(gen, point)
    elif method == "abs":
        verdict = member_absform(gen, point)
    elif method == "interval":
        verdict = member_intervalform(gen, point)
    elif method == "oracle":
        outcome = game_oracle(gen, point, grid=grid, node_cap=node_cap)
        if outcome.outcome is Outcome.UNKNOWN:
            return ("unknown", None)
        flag = outcome.outcome is Outcome.MEMBER_CERTIFIED
        return ("member" if flag else "not-member", flag)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown method {method!r}")
    if verdict.member:
        return ("member", True)
    return (f"not-member [{verdict.violated}]", False)


def cmd_check(args: argparse.Namespace) -> Tuple[int, str]:
    if not 2 <= args.grid <= MAX_ORACLE_GRID:
        raise CliError(f"--grid must be between 2 (the two interval endpoints) and {MAX_ORACLE_GRID}")
    if not 1 <= args.node_cap <= MAX_NODE_CAP:
        raise CliError(f"--node-cap must be between 1 and {MAX_NODE_CAP}")
    system = load_system(args.system)
    gen = as_generalized(system)
    n = gen.shape[1]
    points: List[PointVector] = []
    for text in args.point or []:
        points.append(_parse_point(text, n))
    if args.points:
        points.extend(_load_points(args.points, n))
    if not points:
        raise CliError("no points given; use --point or --points")
    methods = list(_METHODS[:-1]) if args.method == "all" else [args.method]
    if args.method == "all" and gen.kappa != 1:
        methods = [m for m in methods if m not in ("shary", "rohn")]
    lines = []
    all_member = True
    for idx, point in enumerate(points, start=1):
        lines.append(f"point {idx}: {point}")
        booleans = {}
        for method in methods:
            text, flag = _run_method(method, gen, point, args.grid, args.node_cap)
            lines.append(f"  {method:<9} {text}")
            if flag is not None:
                booleans[method] = flag
        verdicts = set(booleans.values())
        if len(verdicts) > 1:
            sys.stderr.write("cross-method disagreement detected; bug report follows\n")
            dump = {
                "system": generalized_document(gen),
                "point": [str(v) for v in point],
                "verdicts": {k: v for k, v in sorted(booleans.items())},
            }
            sys.stderr.write(json.dumps(dump, indent=2) + "\n")
            return EXIT_CROSS_CHECK, _lines(lines)
        if args.method == "all":
            lines.append(f"  agreement ok ({len(booleans)} methods)")
        # An unknown-only answer (oracle mode) cannot certify membership.
        if not verdicts or not verdicts.pop():
            all_member = False
    return (EXIT_OK if all_member else EXIT_NOT_MEMBER), _lines(lines)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def _block_label(s: int, kappa: int) -> str:
    return f"block {s}" + (" (innermost)" if s == 1 else (" (outermost)" if s == kappa else ""))


def cmd_decompose(args: argparse.Namespace) -> Tuple[int, str]:
    system = load_system(args.system)
    gen = as_generalized(system)
    if isinstance(system, ClassicIQSystem):
        shapes = block_shapes(system.prefix)
        kappa = len(shapes)
        lines = [f"prefix: {format_prefix(system.prefix)}", f"kappa: {kappa}"]
        for s, shape in enumerate(shapes, start=1):
            lines.append(f"{_block_label(s, kappa)}: shape {shape}")
        report = validate_disjoint(gen, system.A, system.b)
        verdict = f"sums reproduce A,b: {'ok' if report.ok else f'FAILED ({report})'}"
        code = EXIT_OK if report.ok else EXIT_CROSS_CHECK
    else:
        lines = [f"kappa: {gen.kappa}"]
        report = validate_disjoint(gen, gen.summed_a(), gen.summed_b())
        verdict = f"tuples are disjoint: {'yes' if report.ok else f'no ({report})'}"
        code = EXIT_OK
    for s in range(1, gen.kappa + 1):
        af, ae, bf, be = gen.block(s)
        lines += [f"{_block_label(s, gen.kappa)}:", f"  A' = {af}", f"  A'' = {ae}", f"  b' = {bf}", f"  b'' = {be}"]
    return code, _lines(lines + [verdict])


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def cmd_convert(args: argparse.Namespace) -> Tuple[int, str]:
    system = load_system(args.system)
    if args.target == "ae-flatten":
        gen = as_generalized(system)
        flat = prop2_flatten(gen)
        source_member = partial(member_absform, gen)
    else:
        if not isinstance(system, AbsIneqSystem):
            raise CliError("from-absineq expects an absineq system document")
        flat = prop1_construct(system)
        source_member = partial(member_absineq, system)
    # Spot check: source and target agree on 10 seeded points before any output.
    n = flat.shape[1]
    rng = random.Random(20240 + n)
    for _ in range(10):
        point = random_point(n, rng, magnitude=8, max_denominator=8)
        if source_member(point).member != member_rohn(flat, point).member:
            raise CliError(
                f"conversion spot check failed at {point}; refusing to write output",
                code=EXIT_CROSS_CHECK,
            )
    classic = ClassicIQSystem(flat.summed_a(), flat.summed_b(), recompose_prefix(flat))
    return EXIT_OK, json.dumps(classic_document(classic), indent=2) + "\n"


# ---------------------------------------------------------------------------
# scan2d
# ---------------------------------------------------------------------------


def _centres(lo: Fraction, hi: Fraction, res: int) -> Tuple[int, int, int]:
    """(p, q, r) with the res cell centres of [lo, hi] at (p + q * (2j + 1)) / r, q and r > 0."""
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return 2 * res * a * d, c * b - a * d, 2 * res * b * d


def _cell_run(lo: Optional[tuple], hi: Optional[tuple], grid: Tuple[int, int, int], res: int) -> Tuple[int, int]:
    """The cells [start, stop) of grid whose centres lie in [lo, hi].

    The ends are integer ratios (num, den > 0), None when unbounded.
    Centre j is at least num / den exactly when j >= (num * r - den *
    (p + q)) / (2 * den * q): the first such j is one ceil division, the
    first j past hi one floor division plus 1.
    """
    p, q, r = grid
    start = 0 if lo is None else max(0, -((lo[1] * (p + q) - lo[0] * r) // (2 * lo[1] * q)))
    stop = res if hi is None else min(res, (hi[0] * r - hi[1] * (p + q)) // (2 * hi[1] * q) + 1)
    return start, stop


def cmd_scan2d(args: argparse.Namespace) -> Tuple[int, str]:
    res = args.resolution
    if not 1 <= res <= MAX_SCAN_RESOLUTION:
        raise CliError(f"--resolution must be between 1 and {MAX_SCAN_RESOLUTION}")
    system = load_system(args.system)
    gen = as_generalized(system)
    if gen.shape[1] != 2:
        raise CliError("scan2d requires a system with n = 2 unknowns")
    parts = [p.strip() for p in args.bounds.split(",")]
    if len(parts) != 4:
        raise CliError("--bounds must be xmin,xmax,ymin,ymax")
    xmin, xmax, ymin, ymax = map(_rational, parts)
    if xmin >= xmax or ymin >= ymax:
        raise CliError("scan bounds must be nonempty on both axes")
    px, qx, rx = _centres(xmin, xmax, res)
    py, qy, ry = _centres(ymin, ymax, res)
    # Column i is (px + qx * (2i + 1), 0, rx), so the line solve's u is rx * x2,
    # and the cells are read on the centres times rx.
    grid = (rx * py, rx * qy, ry)
    solve = line_solver(gen, 1)
    runs = []
    for i in range(res):
        row_runs = []
        for lo, hi in solve([px + qx * (2 * i + 1), 0, rx]):
            start, stop = _cell_run(lo, hi, grid, res)
            if start >= stop:
                continue
            # The halves share the centre x2 = 0 or touch: one maximal run.
            if row_runs and start <= row_runs[-1][1]:
                row_runs[-1] = (row_runs[-1][0], stop)
            else:
                row_runs.append((start, stop))
        runs.append(row_runs)
    if args.format == "csv":
        ys = [Fraction(py + qy * (2 * j + 1), ry) for j in range(res)]
        outside, inside = [f"{y},0" for y in ys], [f"{y},1" for y in ys]
        rows = []
        for i, row_runs in enumerate(runs):
            row = outside[:]
            for start, stop in row_runs:
                row[start:stop] = inside[start:stop]
            head = f"{Fraction(px + qx * (2 * i + 1), rx)},"
            rows.append(head + ("\n" + head).join(row))
        payload = "\n".join(["x1,x2,member", *rows, ""])
    else:
        rects = [f'<rect x="{i}" y="{res - stop}" width="1" height="{stop - start}" fill="#1f6feb"/>'
                 for i, row_runs in enumerate(runs) for start, stop in row_runs]
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {res} {res}" '
            f'shape-rendering="crispEdges">\n'
            f"<!-- x1 in [{xmin}, {xmax}], x2 in [{ymin}, {ymax}], "
            f"resolution {res}, filled cells have member centers -->\n"
            f'<rect x="0" y="0" width="{res}" height="{res}" fill="#ffffff"/>\n'
        )
        payload = header + "\n".join(rects) + ("\n" if rects else "") + "</svg>\n"
    return EXIT_OK, payload


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> Tuple[int, str]:
    try:
        spec = InstanceSpec(
            m=args.m,
            n=args.n,
            kappa=args.kappa,
            magnitude=args.magnitude,
            zero_prob=args.zero_prob,
            seed=args.seed,
            max_denominator=args.max_den,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    slots = 2 * spec.kappa * spec.m * (spec.n + 1)
    if slots > MAX_GEN_SLOTS:
        raise CliError(f"--m, --n and --kappa give {slots} interval slots, above the cap of {MAX_GEN_SLOTS}")
    return EXIT_OK, json.dumps(generalized_document(random_instance(spec)), indent=2) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqlin",
        description="Interval-quantifier linear systems: membership tests, "
                    "block decomposition, conversions, solution-set scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test point membership in a system's solution set")
    p_check.add_argument("--system", required=True, help="system document path")
    p_check.add_argument("--point", action="append",
                         help="inline point, comma-separated rationals (repeatable)")
    p_check.add_argument("--points", help="JSON file with a list of points")
    p_check.add_argument("--method", choices=_METHODS, default="all")
    p_check.add_argument("--grid", type=int, default=5,
                         help=f"existential grid points per parameter for the oracle, 2 to {MAX_ORACLE_GRID}")
    p_check.add_argument("--node-cap", type=int, default=10 ** 6,
                         help=f"oracle leaf-evaluation budget, 1 to {MAX_NODE_CAP}")
    p_check.set_defaults(func=cmd_check)

    p_dec = sub.add_parser("decompose", help="show AE-block structure and block tuples")
    p_dec.add_argument("--system", required=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_conv = sub.add_parser("convert", help="convert between system representations")
    p_conv.add_argument("--system", required=True)
    p_conv.add_argument("--target", choices=("ae-flatten", "from-absineq"), required=True)
    p_conv.add_argument("--output", help="output path (stdout when omitted)")
    p_conv.set_defaults(func=cmd_convert)

    p_scan = sub.add_parser("scan2d", help="rasterize a 2-D solution set to CSV or SVG")
    p_scan.add_argument("--system", required=True)
    p_scan.add_argument("--bounds", required=True, help="xmin,xmax,ymin,ymax (rationals)")
    p_scan.add_argument("--resolution", type=int, default=100,
                        help=f"cells per axis, 1 to {MAX_SCAN_RESOLUTION}")
    p_scan.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_scan.add_argument("--output", help="output path (stdout when omitted)")
    p_scan.set_defaults(func=cmd_scan2d)

    p_gen = sub.add_parser("gen", help="generate a seeded random system document")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--m", type=int, default=2)
    p_gen.add_argument("--n", type=int, default=2)
    p_gen.add_argument("--kappa", type=int, default=2)
    p_gen.add_argument("--magnitude", type=int, default=8)
    p_gen.add_argument("--zero-prob", type=float, default=0.5)
    p_gen.add_argument("--max-den", type=int, default=4)
    p_gen.add_argument("--output", help="output path (stdout when omitted)")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; its text goes to ``--output`` when given, else stdout."""
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
        output = getattr(args, "output", None)
        if output is None:
            sys.stdout.write(text)
        else:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        return code
    except (CliError, NodeCapExceeded, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code if isinstance(exc, CliError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
