"""Benchmark of the iqlin package: four seeded workloads, checked outputs.

Run from the root of a source tree of iqlin (the directory holding
``src/iqlin`` and ``BENCHMARK.json``)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep`` (paired per-point closed
forms), ``batch`` (``AbsFormEvaluator.member_many`` with the int64
kernel and the rational fallback), ``scan`` (in-process ``scan2d``)
and ``cli`` (``python -m iqlin.cli`` subprocesses).  ``all`` runs the
four one after another, each in its own process.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json.  Set-up (a fresh interpreter importing iqlin plus
building the inputs) is done three times, for two other seeds and then
for the real one, and its median is reported; a short warm-up on
inputs of yet another seed precedes the timed pass.  With
``--trace 1`` the run reports the per-layer metrics instead: it first
runs the untraced pass in a child process for the overhead baseline,
then builds the same inputs and runs the same pass with every traced
iqlin function wrapped (see ``tracer.py``), and writes the spans to
``.bench_work/trace-<workload>.npz``.

End-to-end metrics: ``setup_s`` (median set-up), ``points_per_s``
(decisions completed over the wall time of the whole timed pass),
``op_p50_ms`` and ``op_tail_ms`` (the median and the highest order
statistic with ten operations beyond it; its percentile is printed),
and ``peak_rss_mb`` (of this process, or of the largest CLI child).

Human-readable lines (all starting with ``#``, or ``name = value unit``)
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  An
operation fails when it raises, returns a wrong verdict or exits with
an unexpected code; ``fail_ratio`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("sweep", "batch", "scan", "cli")
SETUP_REPS = 3
STARTUP_RUNS = 5
# Child processes get a fixed thread count: scan2d would otherwise
# fan out to as many workers as IQLIN_THREADS asks for.
CHILD_ENV = {"IQLIN_THREADS": "1"}


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _prepare_environment() -> None:
    if not os.path.isfile(os.path.join(SRC, "iqlin", "__init__.py")):
        _fail(f"no iqlin sources under {SRC}; run from the root of an iqlin source tree")
    os.environ.update(CHILD_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import iqlin

    if os.path.dirname(os.path.dirname(os.path.abspath(iqlin.__file__))) != SRC:
        _fail(f"imported iqlin from {iqlin.__file__}, not from {SRC}")


def _load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")


def environment_record() -> dict:
    import numpy
    from iqlin import ivcore

    digest = hashlib.sha256()
    package = os.path.join(SRC, "iqlin")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    rational = ivcore.Rational
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scalar_backend": f"{rational.__module__}.{rational.__qualname__}",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "iqlin_threads": os.environ.get("IQLIN_THREADS"),
    }


def _import_seconds() -> float:
    """Time a fresh interpreter spends importing iqlin."""
    code = "import time; t = time.perf_counter(); import iqlin; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.strip())


def _other_seed(seed: int, k: int) -> int:
    return seed * 7919 + 104729 * (k + 1)


def tail(latencies: list) -> tuple:
    """The highest order statistic with at least ten samples beyond it, and its percentile."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def _warm_up(workload, seed: int, ctx) -> None:
    warm = workload.build(_other_seed(seed, 99), workload.WARM_SIZE, ctx, warm=True)
    workload.run(warm, ctx)


def _timed_pass(workload, inputs, ctx):
    gc.collect()
    gc.freeze()
    try:
        return workload.run(inputs, ctx)
    finally:
        gc.unfreeze()


def timed_run(workload, seed: int, seconds: int, setup_reps: int, workdir: str) -> dict:
    from workloads import Context

    ctx = Context(workdir)
    size = workload.size(seconds)
    setups = []
    for k in range(setup_reps):
        inputs = None
        rep_seed = seed if k == setup_reps - 1 else _other_seed(seed, k)
        imported = _import_seconds()
        t0 = time.perf_counter()
        inputs = workload.build(rep_seed, size, ctx)
        build_s = time.perf_counter() - t0
        setups.append(imported + build_s)
    _warm_up(workload, seed, ctx)
    before = resource.getrusage(resource.RUSAGE_SELF)
    res = _timed_pass(workload, inputs, ctx)
    after = resource.getrusage(resource.RUSAGE_SELF)
    failed = workload.check(inputs, res, ctx) | set(res.errors)
    tail_value, tail_pct = tail(res.latencies)
    rss_kb = res.child_rss_kb if workload.name == "cli" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(res.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "points_per_s": res.decisions / res.wall,
        "op_p50_ms": 1000.0 * statistics.median(res.latencies),
        "op_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {
        "metrics": metrics, "attempted": attempted, "failed": len(failed), "errors": res.errors,
        "notes": {
            "ops": attempted, "tail_percentile": round(tail_pct, 2), "setup_runs": setups,
            "walls": {"build_s": build_s, "pass_s": res.wall},
            # CPU seconds and page faults of this process during the pass.
            "pass_usage": {"user_s": after.ru_utime - before.ru_utime,
                           "sys_s": after.ru_stime - before.ru_stime,
                           "minor_faults": after.ru_minflt - before.ru_minflt},
            "inputs": workload.properties(inputs, res),
        },
    }


def _baseline_walls(name: str, seed: int, seconds: int) -> float:
    """Build and pass wall times of an untraced run of the same seed, in a child."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--setup-reps", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"untraced baseline run failed:\n{out.stderr}")
    walls = None
    for line in out.stdout.splitlines():
        if line.startswith("# walls "):
            walls = json.loads(line[len("# walls "):])
    return walls["build_s"] + walls["pass_s"]


def _startup_ms() -> float:
    times = []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "iqlin.cli", "--help"], stdout=subprocess.DEVNULL,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def traced_run(workload, seed: int, seconds: int, workdir: str, env: dict) -> dict:
    from tracer import Tracer
    from workloads import Context

    baseline_s = _baseline_walls(workload.name, seed, seconds)
    startup_ms = _startup_ms()
    tracer = Tracer().install()
    try:
        ctx = Context(workdir, tracer)
        t0 = time.perf_counter()
        inputs = workload.build(seed, workload.size(seconds), ctx)
        build_s = time.perf_counter() - t0
        with tracer.paused():
            _warm_up(workload, seed, Context(workdir))
        res = _timed_pass(workload, inputs, ctx)
    finally:
        tracer.uninstall()
    failed = workload.check(inputs, res, Context(workdir)) | set(res.errors)
    per_layer = tracer.summary()
    per_layer["cli.startup_ms"] = startup_ms
    per_layer["cli.output_bytes"] = res.output_bytes
    per_layer["trace.overhead_s"] = build_s + res.wall - baseline_s
    os.makedirs(WORK_ROOT, exist_ok=True)
    trace_path = os.path.join(WORK_ROOT, f"trace-{workload.name}.npz")
    tracer.save(trace_path, extra={"workload": workload.name, "seed": seed, "seconds": seconds,
                                   "environment": env, "per_layer": per_layer})
    attempted = len(res.latencies)
    return {
        "metrics": per_layer, "attempted": attempted,
        "failed": len(failed), "errors": res.errors,
        "notes": {"ops": attempted, "trace_file": trace_path,
                  "absent": sorted(tracer.absent), "inputs": workload.properties(inputs, res)},
    }


def _report(result: dict, wanted: list) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    for key, value in result["notes"].items():
        print(f"# {key} {json.dumps(value, sort_keys=True)}")
    for op, text in sorted(result["errors"].items())[:3]:
        sys.stderr.write(f"operation {op} raised:\n{text}\n")
    metrics = {}
    for entry in wanted:
        value = result["metrics"].get(entry["name"])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{entry['name']} = {shown} {entry['unit']}")
    print(f"fail_ratio = {result['failed'] / result['attempted']:.6g} ratio")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _run_all(args) -> dict:
    """Each workload in its own process; metrics are prefixed with the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"# workload {name}", flush=True)
        out = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            _fail(f"workload {name} exited with code {out.returncode}")
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-reps", type=int, default=SETUP_REPS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_reps < 1:
        parser.error("--setup-reps must be at least 1")
    _prepare_environment()
    spec = _load_spec()
    if args.workload == "all":
        print(json.dumps(_run_all(args)))
        return 0

    from workloads import WORKLOADS

    env = environment_record()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        workload = WORKLOADS[args.workload]
        if args.trace:
            result = traced_run(workload, args.seed, args.seconds, workdir, env)
            wanted = spec["per_layer"]
        else:
            result = timed_run(workload, args.seed, args.seconds, args.setup_reps, workdir)
            wanted = spec["end_to_end"]
        final = _report(result, wanted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
