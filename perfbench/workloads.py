"""The four benchmark workloads: inputs, timed pass and output checks.

Every workload builds its inputs from a seed, runs them once in a timed
pass, and then checks the outputs outside the timed window.  The
amount of work is fixed by ``--seconds`` alone (about that many
seconds at the commit that defined the benchmark), so a faster iqlin
finishes the same work sooner and every count repeats for a seed.

Inputs are screened where a workload needs a property (a member share
in range, members and non-members both present).  Screening never
evaluates an input of the timed pass in the benchmark process: it runs
on a copy with every interval doubled, which has the same solution set
but a different value, so no cache keyed on the system can hit early.

The iqlin functions are always looked up on their module at call time
(``charac.member_absform``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy

from iqlin import charac, cli, ivcore, oracle, prefix

clock = time.perf_counter

# Largest time any one CLI child may take before it is killed and
# counted as failed.
CHILD_TIMEOUT_S = 60.0
CHILD_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


@dataclass
class Context:
    """What a pass needs besides its inputs: a scratch directory and the tracer."""

    workdir: str
    tracer: object = None

    def begin_op(self, op: int) -> None:
        if self.tracer is not None:
            self.tracer.current_op = op

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()


@dataclass
class PassResult:
    """One timed pass: per-operation latencies, decisions and raw outcomes."""

    latencies: list = field(default_factory=list)
    op_decisions: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    wall: float = 0.0
    output_bytes: int = 0
    child_rss_kb: int = 0
    details: dict = field(default_factory=dict)

    def error(self, op: int) -> None:
        self.errors[op] = traceback.format_exc()

    def record(self, latency: float, decisions: int, outcome) -> None:
        self.latencies.append(latency)
        self.op_decisions.append(decisions)
        self.outcomes.append(outcome)

    @property
    def decisions(self) -> int:
        return sum(self.op_decisions)


def _fraction(rng: random.Random, magnitude: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, max_den))


def _share(values) -> float:
    values = list(values)
    return sum(1 for v in values if v) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# sweep: the per-point rational path
# ---------------------------------------------------------------------------


class Sweep:
    """Paired closed-form decisions on random systems (criterion 1 slice)."""

    name = "sweep"
    POINTS_PER_SYSTEM = 10
    ZERO_PROBS = (0.2, 0.4, 0.6, 0.8)
    # Every (m, n, kappa) in 1..4 once per round, so the mix is the same
    # for every seed and only the values vary.
    SHAPES = tuple((m, n, k) for m in range(1, 5) for n in range(1, 5) for k in range(1, 5))
    WARM_SIZE = 16

    def size(self, seconds: int) -> int:
        """Systems: one round of SHAPES takes about 0.8 s."""
        return len(self.SHAPES) * max(1, round(1.25 * seconds))

    def build(self, seed: int, size: int, ctx: Context, warm: bool = False) -> dict:
        rng = random.Random(seed)
        systems = []
        while len(systems) < size:
            rnd = len(systems) // len(self.SHAPES)
            order = list(enumerate(self.SHAPES))
            rng.shuffle(order)
            for shape_idx, (m, n, kappa) in order[: size - len(systems)]:
                spec = oracle.InstanceSpec(
                    m=m, n=n, kappa=kappa, seed=rng.randrange(2 ** 31),
                    zero_prob=self.ZERO_PROBS[(rnd + shape_idx) % len(self.ZERO_PROBS)],
                )
                gen = oracle.random_instance(spec)
                points = [oracle.random_point(n, rng) for _ in range(self.POINTS_PER_SYSTEM)]
                systems.append((spec, gen, points))
        return {"systems": systems}

    def run(self, inputs: dict, ctx: Context) -> PassResult:
        # One operation is one system: both forms on each of its points.
        # Timing whole systems keeps the tail from resting on a few points
        # that a brief slowdown of the machine happened to hit.
        res = PassResult()
        start = clock()
        for op, (_spec, gen, points) in enumerate(inputs["systems"]):
            ctx.begin_op(op)
            t0 = clock()
            try:
                pairs = [(charac.member_absform(gen, x).member,
                          charac.member_intervalform(gen, x).member) for x in points]
            except Exception:
                pairs = None
                res.error(op)
            res.record(clock() - t0, len(pairs) if pairs else 0, pairs)
        res.wall = clock() - start
        return res

    def check(self, inputs: dict, res: PassResult, ctx: Context) -> set:
        return {op for op, pairs in enumerate(res.outcomes)
                if pairs is None or any(a != b for a, b in pairs)}

    def properties(self, inputs: dict, res: PassResult) -> dict:
        specs = [spec for spec, _, _ in inputs["systems"]]
        return {
            "systems": len(specs),
            "points": res.decisions,
            "member_share": _share(a for pairs in res.outcomes if pairs for a, _ in pairs),
            "kappa_mix": _mix(spec.kappa for spec in specs),
            "m_mix": _mix(spec.m for spec in specs),
            "n_mix": _mix(spec.n for spec in specs),
            "zero_prob_mix": _mix(spec.zero_prob for spec in specs),
        }


def _mix(values) -> dict:
    out: dict = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# batch: AbsFormEvaluator.member_many, int64 kernel and rational fallback
# ---------------------------------------------------------------------------


def _doubled_gen(gen):
    """The system with every interval doubled: same solution set, new value."""
    def mat(M):
        return ivcore.IntervalMatrix(
            [[ivcore.Interval(2 * e.lo, 2 * e.hi) for e in row] for row in M.rows])

    def vec(V):
        return ivcore.IntervalVector([ivcore.Interval(2 * e.lo, 2 * e.hi) for e in V])

    return prefix.GeneralizedIQSystem(
        [mat(M) for M in gen.a_forall], [mat(M) for M in gen.a_exists],
        [vec(V) for V in gen.b_forall], [vec(V) for V in gen.b_exists])


class Batch:
    """Batched decisions on the three criterion-7 shapes, with over-bound calls."""

    name = "batch"
    # (m, n, kappa, magnitude of interval midpoints)
    SHAPES = ((10, 10, 3, 1), (20, 20, 3, 2), (10, 10, 6, 1))
    # Several systems per shape, so the cost of one system's rational
    # fallback does not set the figure of the whole run.
    SYSTEMS_PER_SHAPE = 3
    # One operation is one system's turn in a round: a regular call of
    # CALL_POINTS points, then an over-bound call of FALLBACK_POINTS
    # points, so the rational fallback is about a third of the time of
    # every operation.  A round is one turn of every system.
    CALL_POINTS = 5000
    FALLBACK_POINTS = 3
    # A system is kept when its member share on probe points lies in this
    # range, so the timed share stays well inside 0.2..0.8; criterion 7's
    # own inputs are 0% members, which would favour a kernel that exits early.
    PROBE_POINTS = 500
    PROBE_SHARE = (0.3, 0.7)
    CHECKS_PER_SYSTEM = 4
    # Operations per system whose over-bound point and its neighbour are
    # re-decided; each such check takes tens of milliseconds.
    OVER_BOUND_CHECKS = 2
    WARM_SIZE = 1
    VALUES = tuple(Fraction(p, q) for p in range(-4, 5) for q in range(1, 5))

    def size(self, seconds: int) -> int:
        """Rounds."""
        return max(1, round(0.7 * seconds))

    def _interval(self, rng, mid_mag: int, rad_max: int):
        if rng.random() < 0.3:
            return ivcore.Interval.zero()
        mid = _fraction(rng, mid_mag, 4)
        rad = Fraction(rng.randint(0, rad_max), rng.randint(1, 4))
        return ivcore.Interval(mid - rad, mid + rad)

    def _system(self, rng, m: int, n: int, kappa: int, mid_mag: int):
        # Exists-side radii are drawn three times larger than forall-side ones.
        blocks = []
        for _ in range(kappa):
            blocks.append((
                ivcore.IntervalMatrix([[self._interval(rng, mid_mag, 2) for _ in range(n)] for _ in range(m)]),
                ivcore.IntervalMatrix([[self._interval(rng, mid_mag, 6) for _ in range(n)] for _ in range(m)]),
                ivcore.IntervalVector([self._interval(rng, mid_mag, 2) for _ in range(m)]),
                ivcore.IntervalVector([self._interval(rng, mid_mag, 6) for _ in range(m)]),
            ))
        return prefix.GeneralizedIQSystem(*zip(*blocks))

    def _points(self, rng, n: int, count: int, values) -> list:
        # numpy draws the indices, so that set-up time is mostly iqlin's
        # own PointVector construction rather than the benchmark's sampling.
        picks = numpy.random.default_rng(rng.randrange(2 ** 63)).integers(
            0, len(values), size=(count, n)).tolist()
        return [ivcore.PointVector(map(values.__getitem__, row)) for row in picks]

    def build(self, seed: int, size: int, ctx: Context, warm: bool = False) -> dict:
        rng = random.Random(seed)
        values = [ivcore.rat(v) for v in self.VALUES]
        systems = []
        for shape, (m, n, kappa, mid_mag) in enumerate(self.SHAPES):
            for _ in range(self.SYSTEMS_PER_SHAPE):
                with ctx.untraced():
                    while True:
                        gen = self._system(rng, m, n, kappa, mid_mag)
                        probe = self._points(rng, n, self.PROBE_POINTS, values)
                        share = _share(charac.AbsFormEvaluator(_doubled_gen(gen)).member_many(probe))
                        if self.PROBE_SHARE[0] <= share <= self.PROBE_SHARE[1]:
                            break
                systems.append({"shape": shape, "gen": gen, "n": n, "probe_share": share})
        # Round r gives every system in turn its regular call and its
        # over-bound call.
        ops = []
        for _ in range(size):
            for k, system in enumerate(systems):
                over_bound, where = self._over_bound_call(rng, system["n"], values)
                ops.append((k, self._points(rng, system["n"], self.CALL_POINTS, values),
                            over_bound, where))
        return {"systems": systems, "ops": ops}

    def _over_bound_call(self, rng, n: int, values) -> tuple:
        """Points of which one has a denominator above 2**61, and its index.

        That one point fails the int64 bound and sends the whole call to
        the rational path.
        """
        points = self._points(rng, n, self.FALLBACK_POINTS, values)
        where, coord = rng.randrange(len(points)), rng.randrange(n)
        entries = list(points[where])
        entries[coord] = ivcore.rat(Fraction(rng.choice((-1, 1)), 2 ** 61 + 2 * rng.randrange(2 ** 20) + 1))
        points[where] = ivcore.PointVector(entries)
        return points, where

    def run(self, inputs: dict, ctx: Context) -> PassResult:
        res = PassResult()
        evaluators = {}
        start = clock()
        for op, (k, points, over_bound, _where) in enumerate(inputs["ops"]):
            ctx.begin_op(op)
            verdicts = None
            t0 = clock()
            try:
                if k not in evaluators:
                    # Compiling a system counts in the wall time of the pass,
                    # not in the latency of the system's first operation.
                    evaluators[k] = charac.AbsFormEvaluator(inputs["systems"][k]["gen"])
                    t0 = clock()
                evaluator = evaluators[k]
                verdicts = [*evaluator.member_many(points), *evaluator.member_many(over_bound)]
            except Exception:
                res.error(op)
            res.record(clock() - t0, len(verdicts) if verdicts is not None else 0, verdicts)
        res.wall = clock() - start
        return res

    def check(self, inputs: dict, res: PassResult, ctx: Context) -> set:
        """Verdicts are re-decided with member_intervalform on a fixed sample.

        The sample of each system is evenly spaced points of its regular
        calls, plus the over-bound point and its neighbour in its first
        and last operations.
        """
        failed = set()
        ops_of: dict = {}
        for op, ((k, points, over_bound, _), verdicts) in enumerate(zip(inputs["ops"], res.outcomes)):
            if verdicts is None or len(verdicts) != len(points) + len(over_bound) or not all(
                    isinstance(v, bool) for v in verdicts):
                failed.add(op)
            else:
                ops_of.setdefault(k, []).append(op)
        for k, ops in ops_of.items():
            gen = inputs["systems"][k]["gen"]
            sample = []
            total = len(ops) * self.CALL_POINTS
            for j in range(self.CHECKS_PER_SYSTEM):
                idx = (j * total) // self.CHECKS_PER_SYSTEM + j
                sample.append((ops[idx // self.CALL_POINTS], idx % self.CALL_POINTS))
            last = len(ops) - 1
            for j in range(min(self.OVER_BOUND_CHECKS, len(ops))):
                op = ops[(j * last) // max(1, self.OVER_BOUND_CHECKS - 1)]
                where = inputs["ops"][op][3]
                sample += [(op, self.CALL_POINTS + where),
                           (op, self.CALL_POINTS + (where + 1) % self.FALLBACK_POINTS)]
            for op, idx in sample:
                _, points, over_bound, _ = inputs["ops"][op]
                point = points[idx] if idx < len(points) else over_bound[idx - len(points)]
                if res.outcomes[op][idx] != charac.member_intervalform(gen, point).member:
                    failed.add(op)
        return failed

    def properties(self, inputs: dict, res: PassResult) -> dict:
        systems = inputs["systems"]
        verdicts = [[] for _ in self.SHAPES]
        points = fallback_points = 0
        for (k, regular, over_bound, _), out in zip(inputs["ops"], res.outcomes):
            points += len(regular) + len(over_bound)
            fallback_points += len(over_bound)
            if out is not None:
                verdicts[systems[k]["shape"]].extend(out)
        return {
            "shapes": ["%dx%d kappa=%d" % shape[:3] for shape in self.SHAPES],
            "systems_per_shape": self.SYSTEMS_PER_SHAPE,
            "member_share_per_shape": [round(_share(v), 4) for v in verdicts],
            "probe_share_per_system": [round(sys_["probe_share"], 4) for sys_ in systems],
            "calls": 2 * len(inputs["ops"]),
            "points": points,
            "fallback_share": fallback_points / points,
        }


# ---------------------------------------------------------------------------
# Classic documents shared by scan and cli
# ---------------------------------------------------------------------------


def _quantifier_word(rng: random.Random, mu: int, kappa: int) -> str:
    """A word of length mu whose AE-block decomposition has exactly kappa blocks."""
    # Block s (outermost first) is A^a E^e; a cut falls exactly where an E
    # is followed by an A, so inner blocks need an A and outer ones an E.
    counts = []
    for s in range(kappa):
        counts += [0 if s == 0 else 1, 0 if s == kappa - 1 else 1]
    if sum(counts) > mu:
        raise ValueError(f"{mu} parameters cannot form {kappa} blocks")
    for _ in range(mu - sum(counts)):
        counts[rng.randrange(len(counts))] += 1
    return "".join("A" * counts[2 * s] + "E" * counts[2 * s + 1] for s in range(kappa))


def _interval_json(rng, magnitude: int, max_den: int, max_rad: int) -> list:
    mid = _fraction(rng, magnitude, max_den)
    rad = Fraction(rng.randint(0, max_rad), rng.randint(1, max_den))
    return [str(mid - rad), str(mid + rad)]


def classic_doc(rng: random.Random, m: int, n: int, kappa: int, magnitude: int = 2,
                max_den: int = 2, forall_rad: int = 1, exists_rad: int = 4) -> dict:
    """A random classic document with exactly kappa AE-blocks.

    Universally quantified parameters get narrower intervals than
    existential ones; with equal widths most solution sets are empty.
    """
    params = [f"a[{i},{j}]" for i in range(1, m + 1) for j in range(1, n + 1)]
    params += [f"b[{i}]" for i in range(1, m + 1)]
    rng.shuffle(params)
    word = _quantifier_word(rng, len(params), kappa)
    quant = dict(zip(params, word))

    def interval(param):
        return _interval_json(rng, magnitude, max_den, forall_rad if quant[param] == "A" else exists_rad)

    return {
        "format": "iqlin-system", "version": 1, "kind": "classic", "m": m, "n": n,
        "A": [[interval(f"a[{i},{j}]") for j in range(1, n + 1)] for i in range(1, m + 1)],
        "b": [interval(f"b[{i}]") for i in range(1, m + 1)],
        "prefix": " ".join(f"{q} {p}" for q, p in zip(word, params)),
    }


def _doubled_doc(doc: dict) -> dict:
    def dbl(pair):
        return [str(2 * Fraction(pair[0])), str(2 * Fraction(pair[1]))]

    out = dict(doc)
    out["A"] = [[dbl(e) for e in row] for row in doc["A"]]
    out["b"] = [dbl(e) for e in doc["b"]]
    return out


def gen_of_doc(doc: dict):
    return prefix.build_tuples(cli.parse_system(doc))


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


# ---------------------------------------------------------------------------
# scan: scan2d in-process, CSV and SVG
# ---------------------------------------------------------------------------


class Scan:
    """In-process scan2d commands at resolution 300 on two-unknown classic documents."""

    name = "scan"
    RES = 300
    BOUNDS = (-4, 4, -4, 4)
    M = 2
    # A document is kept when this share of a coarse grid of cell centres
    # lies in its solution set (screened on the doubled copy).
    COARSE = 12
    SHARE = (0.1, 0.7)
    # Each round is three SVG and one CSV command.  CSV commands are
    # slower, and with this mix the median and the tail fall inside the
    # SVG group instead of on the step between the two formats.
    SVG_PER_ROUND = 3
    CSV_PER_ROUND = 1
    CELLS_CHECKED = 20
    WARM_SIZE = 1

    def size(self, seconds: int) -> int:
        """Rounds."""
        return max(1, seconds // 2)

    def _cell_centres(self, res: int):
        xmin, xmax, ymin, ymax = (Fraction(v) for v in self.BOUNDS)
        xs = [xmin + (xmax - xmin) * (2 * i + 1) / (2 * res) for i in range(res)]
        ys = [ymin + (ymax - ymin) * (2 * j + 1) / (2 * res) for j in range(res)]
        return xs, ys

    def build(self, seed: int, size: int, ctx: Context, warm: bool = False) -> dict:
        rng = random.Random(seed)
        folder = os.path.join(ctx.workdir, f"scan-{seed}")
        os.makedirs(folder, exist_ok=True)
        formats = []
        for _ in range(size):
            batch = ["svg"] * self.SVG_PER_ROUND + ["csv"] * self.CSV_PER_ROUND
            rng.shuffle(batch)
            formats += batch
        xs, ys = self._cell_centres(self.COARSE)
        with ctx.untraced():
            coarse = [ivcore.PointVector((x, y)) for x in xs for y in ys]
        bounds = ",".join(str(v) for v in self.BOUNDS)
        commands = []
        for k, fmt in enumerate(formats):
            kappa = 1 + k % 3
            with ctx.untraced():
                while True:
                    doc = classic_doc(rng, self.M, 2, kappa)
                    evaluator = charac.AbsFormEvaluator(gen_of_doc(_doubled_doc(doc)))
                    share = _share(evaluator.member_many(coarse))
                    if self.SHARE[0] <= share <= self.SHARE[1]:
                        break
            path = os.path.join(folder, f"doc{k}.json")
            _write_json(path, doc)
            out = os.path.join(folder, f"out{k}.{fmt}")
            argv = ["scan2d", "--system", path, f"--bounds={bounds}", "--resolution",
                    str(self.RES), "--format", fmt, "--output", out]
            commands.append({"doc": doc, "argv": argv, "format": fmt, "output": out,
                             "kappa": kappa, "coarse_share": share})
        return {"commands": commands, "seed": seed}

    def _main(self, argv) -> int:
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 2

    def run(self, inputs: dict, ctx: Context) -> PassResult:
        res = PassResult()
        start = clock()
        for op, cmd in enumerate(inputs["commands"]):
            ctx.begin_op(op)
            code = None
            t0 = clock()
            try:
                code = self._main(cmd["argv"])
            except Exception:
                res.error(op)
            res.record(clock() - t0, self.RES * self.RES if code == 0 else 0, code)
            if code == 0:
                res.output_bytes += os.path.getsize(cmd["output"])
        res.wall = clock() - start
        return res

    def _member_grid(self, cmd) -> list:
        """grid[i][j] for cell (x1 index i, x2 index j), read back from the output."""
        res = self.RES
        with open(cmd["output"], "r", encoding="utf-8") as handle:
            text = handle.read()
        if cmd["format"] == "csv":
            lines = text.splitlines()
            if len(lines) != res * res + 1 or lines[0] != "x1,x2,member":
                raise ValueError("csv output has the wrong shape")
            flags = [line.endswith(",1") for line in lines[1:]]
            return [flags[i * res:(i + 1) * res] for i in range(res)]
        grid = [[False] * res for _ in range(res)]
        for x, y, h in re.findall(r'<rect x="(\d+)" y="(\d+)" width="1" height="(\d+)"', text):
            i, top, height = int(x), int(y), int(h)
            for j in range(res - top - height, res - top):
                grid[i][j] = True
        return grid

    def check(self, inputs: dict, res: PassResult, ctx: Context) -> set:
        failed = {op for op, code in enumerate(res.outcomes) if code != 0}
        xs, ys = self._cell_centres(self.RES)
        shares = res.details["member_shares"] = []
        for op, cmd in enumerate(inputs["commands"]):
            if op in failed:
                shares.append(None)
                continue
            try:
                grid = self._member_grid(cmd)
            except (OSError, ValueError):
                failed.add(op)
                shares.append(None)
                continue
            cells = [(i, j, grid[i][j]) for i in range(self.RES) for j in range(self.RES)]
            shares.append(_share(flag for _, _, flag in cells))
            # Re-decide a fixed sample of cells, members and non-members alike.
            rng = random.Random(inputs["seed"] * 1000 + op)
            members = [c for c in cells if c[2]]
            others = [c for c in cells if not c[2]]
            half = self.CELLS_CHECKED // 2
            sample = rng.sample(members, min(half, len(members)))
            sample += rng.sample(others, min(self.CELLS_CHECKED - len(sample), len(others)))
            gen = gen_of_doc(cmd["doc"])
            for i, j, flag in sample:
                point = ivcore.PointVector((xs[i], ys[j]))
                if charac.member_intervalform(gen, point).member != flag:
                    failed.add(op)
                    break
        # Byte-identical output when the first command of each format runs again.
        for fmt in ("svg", "csv"):
            op = next((k for k, c in enumerate(inputs["commands"]) if c["format"] == fmt), None)
            if op is None or op in failed:
                continue
            cmd = inputs["commands"][op]
            again = cmd["output"] + ".again"
            argv = cmd["argv"][:-1] + [again]
            if self._main(argv) != 0 or not _same_bytes(cmd["output"], again):
                failed.add(op)
        return failed

    def properties(self, inputs: dict, res: PassResult) -> dict:
        cmds = inputs["commands"]
        shares = [s for s in res.details.get("member_shares", []) if s is not None]
        return {
            "commands": len(cmds),
            "format_mix": _mix(c["format"] for c in cmds),
            "kappa_mix": _mix(c["kappa"] for c in cmds),
            "m": self.M,
            "resolution": self.RES,
            "member_share": sum(shares) / len(shares) if shares else 0.0,
            "member_share_min": min(shares) if shares else 0.0,
            "member_share_max": max(shares) if shares else 0.0,
        }


def _same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


# ---------------------------------------------------------------------------
# cli: python -m iqlin.cli subprocesses, one at a time
# ---------------------------------------------------------------------------


def run_child(argv: list, stdout_path: str, env: dict, timeout: float = CHILD_TIMEOUT_S):
    """Run one child process to completion: (exit code, seconds, its max RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


class Cli:
    """A closed-loop client running one ``python -m iqlin.cli`` command at a time."""

    name = "cli"
    KINDS = ("check-k1", "check-k2", "ae-flatten", "from-absineq", "decompose")
    POINTS_PER_CHECK = 4
    # Candidate points tried per document; a document without enough
    # members among them is replaced.
    CANDIDATES = 40
    WARM_SIZE = 2

    def size(self, seconds: int) -> int:
        return len(self.KINDS) * max(1, round(0.6 * seconds))

    def _check_input(self, rng, kappa: int, all_members: bool):
        """A classic document and points with the wanted member mix."""
        want_members = self.POINTS_PER_CHECK if all_members else self.POINTS_PER_CHECK // 2
        want_others = self.POINTS_PER_CHECK - want_members
        shapes = [(m, n) for m in (1, 2) for n in (1, 2, 3) if m * (n + 1) >= 2 * kappa - 2]
        while True:
            m, n = rng.choice(shapes)
            doc = classic_doc(rng, m, n, kappa)
            gen = gen_of_doc(doc)
            candidates = [[_fraction(rng, 3, 3) for _ in range(n)] for _ in range(self.CANDIDATES)]
            flags = [charac.member_absform(gen, p).member for p in candidates]
            members = [(p, f) for p, f in zip(candidates, flags) if f][:want_members]
            others = [(p, f) for p, f in zip(candidates, flags) if not f][:want_others]
            if len(members) == want_members and len(others) == want_others:
                chosen = members + others
                rng.shuffle(chosen)
                return doc, [p for p, _ in chosen], [f for _, f in chosen], gen.kappa

    def build(self, seed: int, size: int, ctx: Context, warm: bool = False) -> dict:
        rng = random.Random(seed)
        folder = os.path.join(ctx.workdir, f"cli-{seed}")
        os.makedirs(folder, exist_ok=True)
        commands = []
        # The reference verdicts come from this process; the timed commands
        # run in children, which share no state with it.  Nothing built
        # here is an iqlin object the children use, so none of it is traced.
        with ctx.untraced():
            for k in range(size):
                commands.append(self._command(rng, k, folder))
        return {"commands": commands, "folder": folder}

    def _command(self, rng, k: int, folder: str) -> dict:
        kind = self.KINDS[k % len(self.KINDS)]
        path = os.path.join(folder, f"doc{k}.json")
        cmd = {"kind": kind, "doc_path": path}
        if kind.startswith("check"):
            kappa = 1 if kind == "check-k1" else 2 + (k // len(self.KINDS)) % 2
            all_members = (k // len(self.KINDS)) % 2 == 0
            doc, points, flags, got_kappa = self._check_input(rng, kappa, all_members)
            points_path = os.path.join(folder, f"points{k}.json")
            _write_json(points_path, [[str(v) for v in p] for p in points])
            cmd.update(args=["check", "--system", path, "--points", points_path, "--method", "all"],
                       flags=flags, kappa=got_kappa, points=len(points))
        elif kind == "from-absineq":
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            doc = {
                "format": "iqlin-system", "version": 1, "kind": "absineq",
                "C": [[str(_fraction(rng, 4, 3)) for _ in range(n)] for _ in range(m)],
                "D": [[str(_fraction(rng, 2, 3)) for _ in range(n)] for _ in range(m)],
                "c": [str(_fraction(rng, 4, 3)) for _ in range(m)],
                "d": [str(_fraction(rng, 2, 3)) for _ in range(m)],
            }
            cmd.update(args=["convert", "--system", path, "--target", "from-absineq"], kappa=1)
        else:
            kappa = (2 + k % 2) if kind == "ae-flatten" else 1 + k % 3
            shapes = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3) if m * (n + 1) >= 2 * kappa - 2]
            m, n = rng.choice(shapes)
            doc = classic_doc(rng, m, n, kappa)
            args = (["convert", "--system", path, "--target", "ae-flatten"]
                    if kind == "ae-flatten" else ["decompose", "--system", path])
            cmd.update(args=args, kappa=kappa)
        _write_json(path, doc)
        return cmd

    def run(self, inputs: dict, ctx: Context) -> PassResult:
        res = PassResult()
        env = dict(os.environ)
        start = clock()
        for op, cmd in enumerate(inputs["commands"]):
            ctx.begin_op(op)
            stdout_path = os.path.join(inputs["folder"], f"stdout{op}.txt")
            if ctx.tracer is None:
                argv = [sys.executable, "-m", "iqlin.cli", *cmd["args"]]
            else:
                trace_path = os.path.join(inputs["folder"], f"trace{op}.npz")
                argv = [sys.executable, CHILD_SCRIPT, trace_path, str(op), *cmd["args"]]
            try:
                code, elapsed, rss_kb = run_child(argv, stdout_path, env)
            except OSError:
                res.error(op)
                code, elapsed, rss_kb = None, clock() - start, 0
            res.record(elapsed, cmd.get("points", 0) if code in (0, 1) else 0, (code, stdout_path))
            res.child_rss_kb = max(res.child_rss_kb, rss_kb)
            if ctx.tracer is not None and code is not None and os.path.exists(trace_path):
                ctx.tracer.merge(trace_path)
                os.remove(trace_path)
        res.wall = clock() - start
        for code, stdout_path in res.outcomes:
            if code is not None:
                res.output_bytes += os.path.getsize(stdout_path)
        return res

    def check(self, inputs: dict, res: PassResult, ctx: Context) -> set:
        failed = set()
        for op, (cmd, (code, stdout_path)) in enumerate(zip(inputs["commands"], res.outcomes)):
            if code is None:
                failed.add(op)
                continue
            with open(stdout_path, "r", encoding="utf-8") as handle:
                text = handle.read()
            kind = cmd["kind"]
            if kind.startswith("check"):
                expected = 0 if all(cmd["flags"]) else 1
                ok = code == expected and _check_lines_match(text, cmd["flags"], cmd["kappa"])
            elif kind == "decompose":
                ok = code == 0 and "sums reproduce A,b: ok" in text
            else:
                ok = code == 0 and _parses_back(text)
            if not ok:
                failed.add(op)
        return failed

    def properties(self, inputs: dict, res: PassResult) -> dict:
        cmds = inputs["commands"]
        flags = [f for c in cmds for f in c.get("flags", [])]
        return {
            "commands": len(cmds),
            "kind_mix": _mix(c["kind"] for c in cmds),
            "kappa_mix": _mix(c["kappa"] for c in cmds),
            "check_points": len(flags),
            "member_share": _share(flags),
            "expected_exit_mix": _mix(
                (0 if all(c["flags"]) else 1) for c in cmds if "flags" in c),
        }


_VERDICT_LINE = re.compile(r"^  (\w+)\s+(member|not-member|unknown)\b")


def _check_lines_match(text: str, flags: list, kappa: int) -> bool:
    """Every method line of every point agrees with the reference verdict."""
    methods = {"abs", "interval", "oracle"} | ({"shary", "rohn"} if kappa == 1 else set())
    blocks = re.split(r"^point \d+: .*$", text, flags=re.M)[1:]
    if len(blocks) != len(flags):
        return False
    for block, flag in zip(blocks, flags):
        seen = {}
        for line in block.splitlines():
            match = _VERDICT_LINE.match(line)
            if match:
                seen[match.group(1)] = match.group(2)
        if set(seen) != methods or "agreement ok" not in block:
            return False
        want = "member" if flag else "not-member"
        for method, verdict in seen.items():
            if verdict != want and not (method == "oracle" and verdict == "unknown"):
                return False
    return True


def _parses_back(text: str) -> bool:
    try:
        cli.parse_system(json.loads(text, parse_float=Fraction))
    except (ValueError, cli.CliError):
        return False
    return True


WORKLOADS = {w.name: w for w in (Sweep(), Batch(), Scan(), Cli())}
