"""Tests of the benchmark itself.  Run from the repository root with::

    python3 -m pytest perfbench -q
"""

import fnmatch
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from iqlin import charac, prefix  # noqa: E402


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(str(tmp_path))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_negated_sweep_verdict_is_a_failure(ctx, monkeypatch):
    sweep = workloads.Sweep()
    inputs = sweep.build(5, 4, ctx)
    assert sweep.check(inputs, sweep.run(inputs, ctx), ctx) == set()
    original = charac.member_absform
    calls = []

    def negated_once(gen, x):
        verdict = original(gen, x)
        calls.append(None)
        if len(calls) != 3:
            return verdict
        if verdict.member:
            return charac.MembershipVerdict(False, charac.Violation(charac.ConditionKind.CENTER_BOUND, 1))
        return charac.MembershipVerdict(True)

    monkeypatch.setattr(charac, "member_absform", negated_once)
    assert sweep.check(inputs, sweep.run(inputs, ctx), ctx) == {0}


def test_negated_batch_verdict_is_a_failure(ctx, monkeypatch):
    batch = workloads.Batch()
    monkeypatch.setattr(batch, "CALL_POINTS", 40)
    monkeypatch.setattr(batch, "FALLBACK_POINTS", 2)
    monkeypatch.setattr(batch, "PROBE_POINTS", 60)
    monkeypatch.setattr(batch, "CHECKS_PER_SYSTEM", 2)
    monkeypatch.setattr(batch, "SHAPES", ((3, 3, 2, 1),))
    monkeypatch.setattr(batch, "SYSTEMS_PER_SHAPE", 2)
    inputs = batch.build(5, 2, ctx)
    res = batch.run(inputs, ctx)
    assert batch.check(inputs, res, ctx) == set()
    first = res.outcomes[0]
    first[0] = not first[0]  # index 0 is always in the fixed sample
    assert batch.check(inputs, res, ctx) == {0}


def test_negated_cli_verdict_line_is_a_failure():
    text = ("point 1: (1, 2)\n  abs       member\n  interval  member\n"
            "  oracle    unknown\n  agreement ok (2 methods)\n")
    assert workloads._check_lines_match(text, [True], kappa=2)
    assert not workloads._check_lines_match(text.replace("interval  member", "interval  not-member"),
                                            [True], kappa=2)
    assert not workloads._check_lines_match(text, [False], kappa=2)


def test_missing_traced_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(charac.AbsFormEvaluator, "encode_points")
    monkeypatch.delattr(charac.AbsFormEvaluator, "member_batch")
    monkeypatch.setattr(tracer_module, "TARGETS", tracer_module.TARGETS + (
        ("charac.gone", "iqlin.charac", "no_such_function", None),))
    tracer = tracer_module.Tracer().install()
    try:
        charac.member_absform(prefix.GeneralizedIQSystem(*zip(*[_tiny_block()])), [1])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["charac.encode_points.calls"] is None
    assert summary["charac.member_batch.macs"] is None
    assert summary["charac.member_batch.macs_per_s"] is None
    assert summary["charac.gone.self_s"] is None
    assert summary["charac.member_absform.calls"] == 1
    assert charac.member_absform.__name__ == "member_absform"  # unwrapped again


def _tiny_block():
    from iqlin import Interval, IntervalMatrix, IntervalVector

    return (IntervalMatrix([[Interval(0, 0)]]), IntervalMatrix([[Interval(1, 2)]]),
            IntervalVector([Interval(0, 0)]), IntervalVector([Interval(1, 2)]))


def test_self_time_excludes_children():
    tracer = tracer_module.Tracer()
    outer, inner = tracer._name_id("charac.member_many"), tracer._name_id("charac.member_batch")
    for name, parent, start, end in ((outer, -1, 0.0, 5.0), (inner, 0, 1.0, 3.0)):
        tracer.name.append(name)
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = tracer.summary()
    assert summary["charac.member_many.self_s"] == 3.0
    assert summary["charac.member_batch.self_s"] == 2.0


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, pct = run.tail(values)
    assert value == 89 and sum(1 for v in values if v > value) == 10 and pct == 90.0


@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_generated_documents_have_the_requested_block_count(kappa):
    import random

    rng = random.Random(kappa)
    for _ in range(20):
        doc = workloads.classic_doc(rng, 2, 2, kappa)
        assert workloads.gen_of_doc(doc).kappa == kappa


def test_benchmark_json_names_match_what_the_runs_report():
    spec = _spec()
    per_layer = {entry["name"] for entry in spec["per_layer"]}
    tracer = tracer_module.Tracer().install()
    tracer.uninstall()
    reported = set(tracer.summary()) | {"cli.startup_ms", "cli.output_bytes", "trace.overhead_s"}
    assert per_layer == reported
    assert {e["name"] for e in spec["end_to_end"]} == {
        "setup_s", "points_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    with open(os.path.join(HERE, "per_layer_targets.json"), encoding="utf-8") as handle:
        patterns = json.load(handle)["targets"]
    for name in per_layer:
        assert any(fnmatch.fnmatchcase(name, p) for p in patterns), name
