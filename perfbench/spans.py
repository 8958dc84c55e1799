"""Per-layer tracing from outside the program.

``SpanRecorder`` wraps public functions of ``instinctsim`` in place, records
one span per call (name, start, end, parent span, op id) in flat arrays, and
derives self times and per-layer metrics once the traced run has ended.
Nothing is emitted into the program's own trace; ``installed`` puts every
original attribute back on exit.
"""

from __future__ import annotations

import functools
import os
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable

import numpy as np

from instinctsim import agent, bus, instinct, oracle, runner, scenario, trace, world
from instinctsim.messages import LowKind

# (metric prefix, owner, attribute). Module-level functions are patched on
# the module that looks them up at call time.
TARGETS = (
    ("world.DeviceSim.step", world.DeviceSim, "step"),
    ("world.DeviceSim.acquire_scan", world.DeviceSim, "acquire_scan"),
    ("world.DeviceSim.ground_truth_clearance", world.DeviceSim,
     "ground_truth_clearance"),
    ("instinct.InstinctController.tick", instinct.InstinctController, "tick"),
    ("instinct.ObstacleBelief.from_scan", instinct.ObstacleBelief, "from_scan"),
    ("instinct.front_min_range", instinct, "front_min_range"),
    ("instinct.summarize", instinct, "summarize"),
    ("instinct.safety_check", instinct, "safety_check"),
    ("instinct.predict_trajectory", instinct, "predict_trajectory"),
    ("instinct.convert", instinct, "convert"),
    ("instinct.roam_intent", instinct, "roam_intent"),
    ("agent.DecisionAgent.tick", agent.DecisionAgent, "tick"),
    ("agent.plan_rule", agent, "plan_rule"),
    ("agent.hallucinate_wrap", agent, "hallucinate_wrap"),
    ("bus.Channel.transmit", bus.Channel, "transmit"),
    ("bus.Channel.poll", bus.Channel, "poll"),
    ("trace.TraceRecorder.emit", trace.TraceRecorder, "emit"),
    ("trace.TraceAuditor.__call__", trace.TraceAuditor, "__call__"),
    ("trace.MetricsAccumulator.__call__", trace.MetricsAccumulator, "__call__"),
    ("trace.write_trace", trace, "write_trace"),
    ("trace.read_trace", trace, "read_trace"),
    ("trace.recompute_metrics", trace, "recompute_metrics"),
    ("runner.build_runtime", runner, "build_runtime"),
    ("runner.run_sim", runner, "run_sim"),
    ("scenario.random_scenario", scenario, "random_scenario"),
    ("oracle.gen_scenario", oracle, "gen_scenario"),
    ("oracle.oracle_safety", oracle, "oracle_safety"),
    ("oracle.agreement_report", oracle, "agreement_report"),
)

# Work the instinct tick does itself; their tails set the tick's p99.
TICK_CHILDREN = (
    "world.DeviceSim.acquire_scan",
    "instinct.ObstacleBelief.from_scan",
    "instinct.front_min_range",
    "instinct.summarize",
    "instinct.safety_check",
    "instinct.predict_trajectory",
    "instinct.convert",
    "instinct.roam_intent",
)

# Exact counts taken at the wrapped boundaries: (metric name, unit, better).
COUNT_METRICS = (
    ("instinct.safety_check.approved_share", "share", "higher"),
    ("instinct.predict_trajectory.samples_p50", "count", "lower"),
    ("instinct.summarize.calls_per_tick", "1/tick", "lower"),
    ("trace.TraceRecorder.emit.events_per_tick", "1/tick", "lower"),
    ("trace.write_trace.bytes_per_tick", "B/tick", "lower"),
    ("agent.DecisionAgent.tick.calls_per_tick", "1/tick", "lower"),
    ("agent.hallucinate_wrap.replaced_share", "share", "lower"),
)

# Run-level outputs of the traced run; the ratio is the tracing overhead.
TRACED_RUN_METRICS = (
    ("traced.ops_per_s", "1/s", "higher"),
    ("traced.speed_ratio", "ratio", "higher"),
)


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name, _, _ in TARGETS:
        out.append((f"{name}.per_op", "calls/op", "lower"))
        out.append((f"{name}.self_us_p50", "us", "lower"))
        out.append((f"{name}.self_share", "share", "lower"))
        if name in TICK_CHILDREN:
            out.append((f"{name}.self_us_p99", "us", "lower"))
    return out + list(COUNT_METRICS) + list(TRACED_RUN_METRICS)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Spans are in creation order, so a parent precedes its children and
    siblings appear in start order; overlapping children count once.
    """
    n = len(start)
    own = [end[i] - start[i] for i in range(n)]
    covered_until = [start[i] for i in range(n)]
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], covered_until[p])
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            covered_until[p] = hi
    return own


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class SpanRecorder:
    """In-memory span store plus the exact counts named in COUNT_METRICS."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack: list[int] = []
        self.checks = 0
        self.approvals = 0
        self.samples: list[int] = []
        self.trace_bytes = 0
        self.commands = 0
        self.replaced = 0

    def begin_op(self) -> None:
        """Spans recorded from now on belong to the next operation."""
        self.current_op += 1

    def wrap(self, name: str, fn: Callable,
             on_result: Callable | None = None) -> Callable:
        index = len(self.names)
        self.names.append(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(rec.fn)
            rec.fn.append(index)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.op.append(rec.current_op)
            rec.start.append(0)
            rec.end.append(0)
            rec._stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                rec._stack.pop()
                rec.start[i] = t0
                rec.end[i] = t1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- count hooks, run after the span closes ----------------------------

    def _on_check(self, args, kwargs, verdict) -> None:
        low = args[0] if args else kwargs["low"]
        if low.kind is LowKind.SET_WHEELS:
            self.checks += 1
            self.approvals += verdict.safe

    def _on_trajectory(self, args, kwargs, samples) -> None:
        self.samples.append(len(samples))

    def _on_write(self, args, kwargs, lines) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.trace_bytes += os.path.getsize(path)

    def _on_wrap(self, args, kwargs, pairs) -> None:
        self.commands += len(pairs)
        self.replaced += sum(original is not None for _, original in pairs)

    @contextmanager
    def installed(self):
        """Wrap every TARGETS attribute; restore the originals on exit."""
        hooks = {
            "instinct.safety_check": self._on_check,
            "instinct.predict_trajectory": self._on_trajectory,
            "trace.write_trace": self._on_write,
            "agent.hallucinate_wrap": self._on_wrap,
        }
        saved = []
        try:
            for name, owner, attr in TARGETS:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(
                        self.wrap(name, original.__func__, hooks.get(name)))
                else:
                    patched = self.wrap(name, original, hooks.get(name))
                setattr(owner, attr, patched)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self, ops: int, ticks: int, wall_ns: int) -> dict[str, float]:
        """Per-layer metrics over a traced run of ``ops`` operations
        (``ticks`` simulated ticks, 0 when operations are cases) lasting
        ``wall_ns``."""
        own = self_times(self.start, self.end, self.parent)
        by_fn: list[list[int]] = [[] for _ in self.names]
        for f, t in zip(self.fn, own):
            by_fn[f].append(t)
        out: dict[str, float] = {}
        for name, selfs in zip(self.names, by_fn):
            out[f"{name}.per_op"] = len(selfs) / ops if ops else 0.0
            out[f"{name}.self_us_p50"] = _percentile(selfs, 50) / 1e3
            out[f"{name}.self_share"] = sum(selfs) / wall_ns if wall_ns else 0.0
            if name in TICK_CHILDREN:
                out[f"{name}.self_us_p99"] = _percentile(selfs, 99) / 1e3
        calls = {name: len(selfs) for name, selfs in zip(self.names, by_fn)}

        def per_tick(count: float) -> float:
            return count / ticks if ticks else 0.0

        out["instinct.safety_check.approved_share"] = (
            self.approvals / self.checks if self.checks else 0.0)
        out["instinct.predict_trajectory.samples_p50"] = _percentile(
            self.samples, 50)
        out["instinct.summarize.calls_per_tick"] = per_tick(
            calls["instinct.summarize"])
        out["trace.TraceRecorder.emit.events_per_tick"] = per_tick(
            calls["trace.TraceRecorder.emit"])
        out["trace.write_trace.bytes_per_tick"] = per_tick(self.trace_bytes)
        out["agent.DecisionAgent.tick.calls_per_tick"] = per_tick(
            calls["agent.DecisionAgent.tick"])
        out["agent.hallucinate_wrap.replaced_share"] = (
            self.replaced / self.commands if self.commands else 0.0)
        return out
