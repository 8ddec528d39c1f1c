"""Span tracing of the iqlin layers, done from outside the package.

The tracer replaces each traced function with a wrapper at every
binding inside the ``iqlin`` package (``iqlin.charac.member_absform``,
``iqlin.cli.member_absform``, ``iqlin.member_absform``, ...), and
wraps methods on their class.  A wrapper records one span per call:
name, start, end, parent span and the benchmark operation it belongs
to.  Spans live in flat arrays in memory and are written out once, by
``save``.  Self time is a span's duration minus the durations of its
direct children.

A traced name that no longer exists in the package is reported as
absent (its metrics become ``None``) instead of failing the run, so
later versions of iqlin may rename or delete what is traced here.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("ivcore", "prefix", "charac", "oracle", "cli")

# Decision functions whose verdicts feed ``charac.member_share``; only the
# outermost decision of a call chain is counted.
_DECISIONS = (
    "charac.member_absform",
    "charac.member_intervalform",
    "charac.member_rohn",
    "charac.member_shary_blocks",
    "charac.member_rohn_blocks",
    "charac.member_many",
)


def _on_member_many(tracer, result, args, kwargs):
    tracer.counters["charac.member_many.points"] += len(result)
    if tracer.outermost_decision("charac.member_many"):
        tracer.counters["decisions"] += len(result)
        tracer.counters["members"] += sum(bool(v) for v in result)


def _on_member_batch(tracer, result, args, kwargs):
    evaluator, aug = args[0], args[1]
    m, n = evaluator.gen.shape
    kappa = evaluator.gen.kappa
    tracer.counters["charac.member_batch.macs"] += 2 * kappa * m * (n + 1) * int(aug.shape[1])


def _on_verdict(name):
    def hook(tracer, result, args, kwargs):
        if tracer.outermost_decision(name):
            tracer.counters["decisions"] += 1
            tracer.counters["members"] += bool(result.member)
    return hook


_count_absform_verdict = _on_verdict("charac.member_absform")


def _on_member_absform(tracer, result, args, kwargs):
    if tracer.active["charac.member_many"]:
        tracer.counters["charac.fallback_points"] += 1
    _count_absform_verdict(tracer, result, args, kwargs)


def _on_game_oracle(tracer, result, args, kwargs):
    tracer.counters["oracle.game_oracle.leaf_evals"] += int(result.evaluations)
    tracer.counters["oracle.game_oracle.unknown"] += result.outcome.value == "unknown"


# (span name, defining module, attribute path, hook).  An attribute path
# with a dot is a method on a class; ``__init__`` is traced as ``init``.
TARGETS = (
    ("ivcore.PointVector", "iqlin.ivcore", "PointVector.__init__", None),
    ("prefix.build_tuples", "iqlin.prefix", "build_tuples", None),
    ("prefix.decompose_ae_blocks", "iqlin.prefix", "decompose_ae_blocks", None),
    ("prefix.validate_disjoint", "iqlin.prefix", "validate_disjoint", None),
    ("charac.member_absform", "iqlin.charac", "member_absform", _on_member_absform),
    ("charac.member_intervalform", "iqlin.charac", "member_intervalform",
     _on_verdict("charac.member_intervalform")),
    ("charac.member_rohn", "iqlin.charac", "member_rohn", _on_verdict("charac.member_rohn")),
    ("charac.member_shary_blocks", "iqlin.charac", "member_shary_blocks",
     _on_verdict("charac.member_shary_blocks")),
    ("charac.member_rohn_blocks", "iqlin.charac", "member_rohn_blocks",
     _on_verdict("charac.member_rohn_blocks")),
    ("charac.prop2_flatten", "iqlin.charac", "prop2_flatten", None),
    ("charac.AbsFormEvaluator.init", "iqlin.charac", "AbsFormEvaluator.__init__", None),
    ("charac.encode_points", "iqlin.charac", "AbsFormEvaluator.encode_points", None),
    ("charac.member_many", "iqlin.charac", "AbsFormEvaluator.member_many", _on_member_many),
    ("charac.member_batch", "iqlin.charac", "AbsFormEvaluator.member_batch", _on_member_batch),
    ("oracle.game_oracle", "iqlin.oracle", "game_oracle", _on_game_oracle),
    ("oracle.random_instance", "iqlin.oracle", "random_instance", None),
    ("cli.load_system", "iqlin.cli", "load_system", None),
    ("cli.main", "iqlin.cli", "main", None),
)

# Counters a hook fills; a hook that fails marks its counters absent.
_HOOK_COUNTERS = {
    "charac.member_many": ("charac.member_many.points", "decisions", "members"),
    "charac.member_batch": ("charac.member_batch.macs",),
    "charac.member_absform": ("charac.fallback_points",),
    "oracle.game_oracle": ("oracle.game_oracle.leaf_evals", "oracle.game_oracle.unknown"),
}


class Tracer:
    """Records spans around the traced iqlin functions while installed."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.counters: Counter = Counter()
        self.active: Counter = Counter()
        self.absent: set = set()
        self.recording = True
        self._stack = [-1]
        self._undo: list = []
        for span_name, *_ in TARGETS:
            self._name_id(span_name)

    # -- installation -------------------------------------------------

    def install(self) -> "Tracer":
        for span_name, module_name, attr, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                parts = attr.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.absent.add(span_name)
                self.absent.update(_HOOK_COUNTERS.get(span_name, ()))
                continue
            wrapper = self._wrap(span_name, original, hook)
            if len(parts) > 1:
                self._replace(owner, parts[-1], original, wrapper)
            else:
                for name, loaded in list(sys.modules.items()):
                    if loaded is not None and (name == "iqlin" or name.startswith("iqlin.")):
                        for key, value in list(vars(loaded).items()):
                            if value is original:
                                self._replace(loaded, key, original, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def _name_id(self, span_name: str) -> int:
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._name_ids[span_name]

    def _wrap(self, span_name, fn, hook):
        nid = self._name_id(span_name)
        tracer = self
        clock = time.perf_counter
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack)
        active = self.active

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(idx)
            active[span_name] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[span_name] -= 1
                stack.pop()
            if hook is not None and span_name not in tracer.absent:
                try:
                    hook(tracer, result, args, kwargs)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # The traced function changed shape; its counters are
                    # no longer meaningful.
                    for counter in _HOOK_COUNTERS.get(span_name, ()):
                        tracer.absent.add(counter)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def outermost_decision(self, name: str) -> bool:
        return all(self.active[other] == 0 for other in _DECISIONS if other != name)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside do not record spans or counters."""
        previous = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = previous

    # -- persistence ------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0),
            "end": np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0),
            "name": np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32) if len(self.op) else np.zeros(0, np.int32),
        }

    def save(self, path: str, extra: dict | None = None) -> None:
        meta = {
            "names": self.names,
            "counters": dict(self.counters),
            "absent": sorted(self.absent),
            "extra": extra or {},
        }
        with open(path, "wb") as handle:
            np.savez(handle, meta=np.array(json.dumps(meta)), **self.arrays())

    def merge(self, path: str) -> None:
        """Append the spans and counters a traced child process saved."""
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            remap = np.array([self._name_id(n) for n in meta["names"]], dtype=np.int32)
            offset = len(self.start)
            parent = data["parent"].astype(np.int64)
            parent = np.where(parent >= 0, parent + offset, -1)
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.name.extend(remap[data["name"]].tolist())
            self.parent.extend(parent.tolist())
            self.op.extend(data["op"].tolist())
        self.counters.update(meta["counters"])
        self.absent.update(meta["absent"])

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics: calls and self time per span name and per module."""
        spans = self.arrays()
        count = len(spans["start"])
        dur = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent], minlength=count)
        self_time = dur - child[:count]
        width = len(self.names)
        calls = np.bincount(spans["name"], minlength=width)
        selfs = np.bincount(spans["name"], weights=self_time, minlength=width)
        inclusive = np.bincount(spans["name"], weights=dur, minlength=width)
        out: dict = {}
        modules = {module: [0, 0.0] for module in MODULES}
        for nid, span_name in enumerate(self.names):
            if span_name in self.absent:
                out[f"{span_name}.calls"] = None
                out[f"{span_name}.self_s"] = None
                continue
            out[f"{span_name}.calls"] = int(calls[nid])
            out[f"{span_name}.self_s"] = float(selfs[nid])
            module = span_name.split(".")[0]
            modules[module][0] += int(calls[nid])
            modules[module][1] += float(selfs[nid])
        for module, (c, s) in modules.items():
            out[f"{module}.calls"] = c
            out[f"{module}.self_s"] = s

        def counter(key):
            return None if key in self.absent else self.counters[key]

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        macs = counter("charac.member_batch.macs")
        batch_time = float(inclusive[self._name_ids["charac.member_batch"]])
        out["charac.member_batch.macs"] = macs
        out["charac.member_batch.macs_per_s"] = ratio(macs, batch_time)
        out["charac.fallback_points"] = counter("charac.fallback_points")
        out["charac.fallback_share"] = ratio(
            counter("charac.fallback_points"), counter("charac.member_many.points"))
        out["charac.member_share"] = ratio(counter("members"), counter("decisions"))
        out["oracle.game_oracle.leaf_evals"] = counter("oracle.game_oracle.leaf_evals")
        out["oracle.unknown_share"] = ratio(
            counter("oracle.game_oracle.unknown"), out["oracle.game_oracle.calls"])
        return out
