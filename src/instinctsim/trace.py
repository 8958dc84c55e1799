"""Trace events, run metrics, replay recomputation, and invariant auditing.

A run emits one stream of ``TraceEvent`` records strictly ordered by
``(tick, seq)``. Everything in the metrics document except the timing block
is recomputable from that stream; timing is deliberately kept out of the
trace so trace bytes stay identical across repeated runs.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from .messages import TERMINAL_STATUSES

# Instinct-tick phases for the ordering audit. Survival work (status check,
# safe mode, governor, roaming) must precede command handling within a tick.
# A primitive's verdict and execution take the phase of its parent: survival
# for a roaming arc (parent_id "SURVIVAL"), command for an agent command's.
_SURVIVAL_KINDS = {"status", "safe_mode_entered", "safe_mode_exited",
                   "governor"}
_COMMAND_KINDS = {"command_received", "command_malformed"}
_PRIMITIVE_KINDS = {"verdict", "exec_wheels", "exec_stop"}
# Feedback statuses after which no feedback may name the command again.
_TERMINAL = frozenset(status.value for status in TERMINAL_STATUSES)

# One encoder for every event: ``json.dumps(obj, sort_keys=True)`` builds a
# new JSONEncoder per call, and this one writes the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True)


class TraceEvent(NamedTuple):
    """One trace record; a tuple, which is the cheapest record to build."""

    tick: int
    seq: int
    layer: str
    kind: str
    payload: dict

    def to_json(self) -> str:
        return _ENCODER.encode(
            {"tick": self.tick, "seq": self.seq, "layer": self.layer,
             "kind": self.kind, "payload": self.payload})


class TraceRecorder:
    """Assigns (tick, seq) to events and fans them out to sinks.

    ``store=False`` keeps long runs out of memory; sinks still see every
    event. Thread-safe so live mode can share one recorder across layers:
    sinks are called under the lock, so they see events in (tick, seq)
    order even when several threads emit.
    """

    def __init__(self, store: bool = True,
                 sinks: list[Callable[[TraceEvent], None]] | None = None) -> None:
        self.store = store
        self.events: list[TraceEvent] = []
        self.sinks = list(sinks or [])
        self._tick = 0
        self._seq = 0
        self._lock = threading.Lock()

    def begin_tick(self, tick: int) -> None:
        """Start (or re-enter) a tick; seq resets only on a tick change, so
        several layers can call this for the same tick safely. A new
        recorder is in tick 0."""
        with self._lock:
            if tick != self._tick:
                self._tick = tick
                self._seq = 0

    def emit(self, layer: str, kind: str, payload: dict) -> TraceEvent:
        with self._lock:
            event = TraceEvent(self._tick, self._seq, layer, kind, payload)
            self._seq += 1
            if self.store:
                self.events.append(event)
            # No sink emits, so a plain Lock cannot deadlock here.
            for sink in self.sinks:
                sink(event)
        return event


def write_trace(events: Iterable[TraceEvent], path: str) -> int:
    """Write events as JSONL (one event per line); returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(event.to_json())
            fh.write("\n")
            count += 1
    return count


def read_trace(path: str) -> Iterator[TraceEvent]:
    """Yield the events of a JSONL trace one at a time, in file order.

    The reader streams: it parses a line only when the caller asks for the
    next event and keeps no list, so replaying a trace takes memory that
    does not grow with the trace. It is a generator: iterate it once (wrap
    it in ``list`` to keep the events). The file opens at the first
    ``next`` and closes once the events are exhausted or the generator is
    closed. Blank lines are skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            yield TraceEvent(raw["tick"], raw["seq"], raw["layer"],
                             raw["kind"], raw["payload"])


@dataclass
class RunMetrics:
    ticks: int = 0
    min_ground_truth_clearance: float | None = None
    collisions: int = 0
    refusals: int = 0
    hallucinated_commands: int = 0
    tasks_completed: int = 0
    tasks_blocked: int = 0
    timing: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def replay_dict(self) -> dict:
        """The trace-recomputable portion (everything but timing)."""
        out = self.to_dict()
        out.pop("timing")
        return out


def write_metrics(metrics: RunMetrics, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


class MetricsAccumulator:
    """Streaming metrics builder; feed it every trace event in order."""

    def __init__(self) -> None:
        self.metrics = RunMetrics()

    def __call__(self, event: TraceEvent) -> None:
        kind = event.kind
        if event.layer == "INSTINCT":
            if kind == "status":
                self.metrics.ticks += 1
            elif kind == "verdict":
                payload = event.payload
                if not payload["safe"] and payload["parent_id"] != "SURVIVAL":
                    self.metrics.refusals += 1
        elif event.layer == "DEVICE":
            if kind == "state":
                c = event.payload["clearance"]
                best = self.metrics.min_ground_truth_clearance
                if best is None or c < best:
                    self.metrics.min_ground_truth_clearance = c
            elif kind == "collision":
                self.metrics.collisions += 1
        elif event.layer == "DECISION":
            if kind == "hallucination":
                self.metrics.hallucinated_commands += 1
            elif kind == "task_completed":
                self.metrics.tasks_completed += 1
            elif kind == "task_blocked":
                self.metrics.tasks_blocked += 1


def recompute_metrics(events: Iterable[TraceEvent]) -> RunMetrics:
    """Rebuild the replayable metrics purely from a trace."""
    acc = MetricsAccumulator()
    for event in events:
        acc(event)
    return acc.metrics


def _phase(event: TraceEvent, unsafe_tick: bool) -> str | None:
    """``"survival"``, ``"command"`` or None for events outside both phases.

    SAFE_MODE feedback during an unsafe tick is part of entering safe mode;
    on a safe (holding) tick it answers a fresh command, like all other
    feedback.
    """
    if event.kind in _PRIMITIVE_KINDS:
        if event.payload.get("parent_id") == "SURVIVAL":
            return "survival"
        return "command"
    if event.layer == "INSTINCT":
        if event.kind in _SURVIVAL_KINDS:
            return "survival"
        if event.kind in _COMMAND_KINDS:
            return "command"
        if event.kind == "feedback":
            if unsafe_tick and event.payload.get("status") == "SAFE_MODE":
                return "survival"
            return "command"
    return None


class TraceAuditor:
    """Online checker for the run-level trace invariants.

    Violations are collected rather than raised so a whole batch of runs can
    be audited and reported at once:

    * events strictly ordered by (tick, seq);
    * within a tick every survival/safe-mode event precedes every
      command-handling event, and an unsafe-status tick has no
      command-handling events at all;
    * verdict ``low_id``s strictly increase: every vetted primitive gets
      exactly one verdict, numbered by one counter;
    * no refused low command is ever executed by a device;
    * every device execution, of a roaming arc or of an agent command, has
      a same-tick prior approval verdict from the instinct layer;
    * no feedback for a high command after its terminal one (each such
      feedback is one violation; ``finish`` adds none for it).

    Refusals are kept for the current tick only, so memory does not grow
    with the primitives of a run. A primitive refused on an earlier tick
    can execute only after a fresh same-tick approval, which is a second
    verdict for its id and breaks the increasing-id rule; without one, the
    same-tick-approval rule flags the execution.
    """

    def __init__(self) -> None:
        self.violations: list[str] = []
        self._last_key: tuple[int, int] | None = None
        self._tick: int | None = None
        self._tick_unsafe = False
        self._min_command_seq: int | None = None
        self._tick_approved: set[int] = set()
        self._tick_refused: set[int] = set()
        self._last_verdict_id: int | None = None
        self._received_cmds: set[int] = set()
        self._ended: set[int] = set()  # commands with a terminal feedback

    def __call__(self, event: TraceEvent) -> None:
        key = (event.tick, event.seq)
        if self._last_key is not None and key <= self._last_key:
            self.violations.append(f"ordering broken at {key} after {self._last_key}")
        self._last_key = key
        if event.tick != self._tick:
            self._tick = event.tick
            self._tick_unsafe = False
            self._min_command_seq = None
            self._tick_approved = set()
            self._tick_refused = set()

        if event.layer == "INSTINCT" and event.kind == "status":
            self._tick_unsafe = not event.payload["safe"]

        phase = _phase(event, self._tick_unsafe)
        if phase == "survival" and self._min_command_seq is not None:
            self.violations.append(
                f"tick {event.tick}: survival event seq {event.seq} after "
                f"command event seq {self._min_command_seq}"
            )
        elif phase == "command":
            if self._min_command_seq is None:
                self._min_command_seq = event.seq
            if self._tick_unsafe:
                self.violations.append(
                    f"tick {event.tick}: command event {event.kind} on unsafe tick"
                )

        if event.layer == "INSTINCT":
            if event.kind == "verdict":
                low_id = event.payload["low_id"]
                last = self._last_verdict_id
                if last is not None and low_id <= last:
                    self.violations.append(
                        f"tick {event.tick}: verdict for low {low_id} "
                        f"after verdict for low {last}"
                    )
                else:
                    self._last_verdict_id = low_id
                if event.payload["safe"]:
                    self._tick_approved.add(low_id)
                else:
                    self._tick_refused.add(low_id)
            elif event.kind in ("command_received", "command_malformed"):
                self._received_cmds.add(event.payload["id"])
            elif event.kind == "feedback":
                cid = event.payload.get("command_id")
                if cid is not None:
                    if cid in self._ended:
                        self.violations.append(
                            f"tick {event.tick}: feedback for command {cid} "
                            f"after terminal status"
                        )
                    elif event.payload.get("status") in _TERMINAL:
                        self._ended.add(cid)
        elif event.layer == "DEVICE" and event.kind in _PRIMITIVE_KINDS:
            low_id = event.payload.get("low_id")
            if low_id in self._tick_refused:
                self.violations.append(
                    f"tick {event.tick}: refused low command {low_id} executed"
                )
            if low_id not in self._tick_approved:
                self.violations.append(
                    f"tick {event.tick}: device execution of low {low_id} "
                    f"without same-tick instinct approval"
                )

    def finish(self, allow_in_flight: bool = True) -> list[str]:
        """Final whole-run checks; returns all collected violations."""
        if not allow_in_flight:
            for cid in sorted(self._received_cmds - self._ended):
                self.violations.append(f"command {cid}: no terminal feedback")
        return self.violations
