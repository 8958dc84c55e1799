"""Trace plumbing tests: files, ordering, metrics replay, the auditor."""

import json
import math
import re
import threading
import tracemalloc
from pathlib import Path

from instinctsim.trace import (
    MetricsAccumulator,
    RunMetrics,
    TraceAuditor,
    TraceEvent,
    TraceRecorder,
    read_trace,
    recompute_metrics,
    write_metrics,
    write_trace,
)

ROOT = Path(__file__).resolve().parent.parent


def ev(tick, seq, layer, kind, **payload):
    if "kind_" in payload:  # payload key "kind" collides with the event kind
        payload["kind"] = payload.pop("kind_")
    return TraceEvent(tick, seq, layer, kind, payload)


class TestRecorder:
    def test_seq_increments_within_tick(self):
        rec = TraceRecorder()
        rec.begin_tick(0)
        rec.emit("INSTINCT", "status", {"safe": True})
        rec.emit("DEVICE", "state", {})
        rec.begin_tick(1)
        rec.emit("INSTINCT", "status", {"safe": True})
        keys = [(e.tick, e.seq) for e in rec.events]
        assert keys == [(0, 0), (0, 1), (1, 0)]

    def test_begin_tick_reentrant(self):
        rec = TraceRecorder()
        rec.begin_tick(4)
        rec.emit("DEVICE", "state", {})
        rec.begin_tick(4)  # second layer entering the same tick
        rec.emit("INSTINCT", "status", {"safe": True})
        assert [(e.tick, e.seq) for e in rec.events] == [(4, 0), (4, 1)]

    def test_emit_before_first_begin_tick_keeps_seq(self):
        # the recorder starts at tick 0, so entering tick 0 is a re-entry
        auditor = TraceAuditor()
        rec = TraceRecorder(sinks=[auditor])
        rec.emit("DEVICE", "state", {})
        rec.begin_tick(0)
        rec.emit("INSTINCT", "status", {"safe": True})
        assert [(e.tick, e.seq) for e in rec.events] == [(0, 0), (0, 1)]
        assert not any("ordering" in v for v in auditor.violations)

    def test_store_false_still_feeds_sinks(self):
        seen = []
        rec = TraceRecorder(store=False, sinks=[seen.append])
        rec.emit("DEVICE", "state", {})
        assert rec.events == []
        assert len(seen) == 1

    def test_sinks_see_events_in_seq_order_across_threads(self):
        # thread A's sink waits (up to 0.5 s) for B's emit to finish; B must
        # not be delivered before A's earlier seq
        delivered = []
        a_in_sink = threading.Event()
        b_emitted = threading.Event()

        def sink(event):
            if event.payload["who"] == "A":
                a_in_sink.set()
                b_emitted.wait(0.5)
            delivered.append(event.seq)

        rec = TraceRecorder(store=False, sinks=[sink])
        a = threading.Thread(target=rec.emit,
                             args=("DEVICE", "state", {"who": "A"}))
        a.start()
        assert a_in_sink.wait(5.0)
        rec.emit("DEVICE", "state", {"who": "B"})
        b_emitted.set()
        a.join()
        assert delivered == [0, 1]


class TestTraceFiles:
    def sample_events(self):
        return [
            ev(0, 0, "INSTINCT", "status", safe=True, reason="OK",
               mode="NORMAL", front_min=5.0),
            ev(0, 1, "DEVICE", "state", clearance=1.5, collided=False),
            ev(1, 0, "INSTINCT", "status", safe=True, reason="OK",
               mode="NORMAL", front_min=5.0),
        ]

    def test_roundtrip_and_line_count(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = self.sample_events()
        count = write_trace(events, str(path))
        assert count == 3
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert list(read_trace(str(path))) == events

    def test_event_fields_and_json_bytes(self):
        event = TraceEvent(3, 1, "INSTINCT", "verdict",
                           {"safe": True, "bound": "disc"})
        assert TraceEvent._fields == ("tick", "seq", "layer", "kind",
                                      "payload")
        assert event.to_json() == (
            '{"kind": "verdict", "layer": "INSTINCT", "payload": '
            '{"bound": "disc", "safe": true}, "seq": 1, "tick": 3}')

    def test_json_bytes_match_dumps(self):
        payloads = [
            {"c": math.nan, "b": math.inf, "a": -math.inf},
            {"route": [[0.5, -1.25], [2.0, [3, None]]], "empty": []},
            {"reason": "Hindernis vor dem Roboter: 0,3 m — 障害物"},
            {"x": None, "safe": True, "collided": False, "n": 0},
            {"nested": {"z": {"y": [True, None, -0.0]}, "a": 1e300}},
        ]
        for payload in payloads:
            event = TraceEvent(7, 2, "DEVICE", "state", payload)
            assert event.to_json() == json.dumps(
                {"tick": 7, "seq": 2, "layer": "DEVICE", "kind": "state",
                 "payload": payload}, sort_keys=True)

    def test_events_sorted_by_tick_seq(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(self.sample_events(), str(path))
        keys = [(e.tick, e.seq) for e in read_trace(str(path))]
        assert keys == sorted(keys)

    def test_empty_run(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_trace([], str(path)) == 0
        assert path.read_text() == ""
        assert list(read_trace(str(path))) == []

    def test_replay_memory_does_not_grow_with_trace(self, tmp_path):
        # 5,000 ticks of a roaming run's events: 20,000 lines
        def events():
            for tick in range(5000):
                yield ev(tick, 0, "DEVICE", "state",
                         clearance=1.0 + tick * 1e-4, collided=False,
                         pose=[tick * 1e-3, -0.5, 0.25], load=0.1)
                yield ev(tick, 1, "INSTINCT", "status", safe=True,
                         reason="OK", mode="NORMAL", front_min=2.5)
                yield ev(tick, 2, "INSTINCT", "verdict", low_id=tick + 1,
                         parent_id="SURVIVAL", safe=tick % 3 != 0,
                         predicted_min_clearance=0.4, reason="OK")
                yield ev(tick, 3, "DEVICE", "exec_wheels", low_id=tick + 1,
                         parent_id="SURVIVAL", v_left=0.2, v_right=0.3,
                         duration_ticks=1)

        path = tmp_path / "long.jsonl"
        assert write_trace(events(), str(path)) == 20000
        reader = read_trace(str(path))
        assert iter(reader) is reader
        reader.close()
        tracemalloc.start()
        try:
            replayed = recompute_metrics(read_trace(str(path)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert replayed == recompute_metrics(events())
        assert replayed.ticks == 5000
        assert peak < 1_000_000, peak

    def test_metrics_document(self, tmp_path):
        m = RunMetrics(ticks=10, collisions=0, refusals=2,
                       timing={"p99_ms": 0.4})
        path = tmp_path / "metrics.json"
        write_metrics(m, str(path))
        raw = json.loads(path.read_text())
        assert raw["refusals"] == 2
        assert raw["timing"]["p99_ms"] == 0.4


class TestMetricsReplay:
    def test_recompute_matches_streaming(self):
        events = [
            ev(0, 0, "INSTINCT", "status", safe=True),
            ev(0, 1, "DEVICE", "state", clearance=0.8, collided=False),
            ev(1, 0, "INSTINCT", "status", safe=True),
            ev(1, 1, "DEVICE", "state", clearance=0.3, collided=False),
            ev(1, 2, "INSTINCT", "verdict", low_id=3, parent_id="SURVIVAL",
               safe=False, predicted_min_clearance=0.1,
               reason="OBSTACLE_PREDICTED"),
            ev(1, 3, "INSTINCT", "verdict", low_id=4, parent_id=1,
               safe=False, predicted_min_clearance=0.1,
               reason="OBSTACLE_PREDICTED"),
            ev(1, 4, "INSTINCT", "verdict", low_id=5, parent_id=1,
               safe=True, predicted_min_clearance=0.5, reason="OK"),
            ev(2, 0, "DECISION", "hallucination", command_id=3),
            ev(2, 1, "DECISION", "task_completed", id=1),
            ev(3, 0, "DEVICE", "collision", x=0.0, y=0.0),
        ]
        acc = MetricsAccumulator()
        for e in events:
            acc(e)
        replayed = recompute_metrics(events)
        assert replayed.replay_dict() == acc.metrics.replay_dict()
        assert replayed.ticks == 2
        assert replayed.min_ground_truth_clearance == 0.3
        assert replayed.refusals == 1  # a refused roaming arc is no refusal
        assert replayed.hallucinated_commands == 1
        assert replayed.tasks_completed == 1
        assert replayed.collisions == 1

    def test_empty_run_metrics(self):
        m = recompute_metrics([])
        assert m.ticks == 0
        assert m.min_ground_truth_clearance is None


class TestAuditor:
    def feed(self, events, allow_in_flight=True):
        auditor = TraceAuditor()
        for e in events:
            auditor(e)
        return auditor.finish(allow_in_flight=allow_in_flight)

    def clean_tick(self, tick, unsafe=False):
        return [
            ev(tick, 0, "DEVICE", "state", clearance=1.0, collided=False),
            ev(tick, 1, "INSTINCT", "status", safe=not unsafe,
               reason="OK" if not unsafe else "OBSTACLE_PROXIMITY",
               mode="NORMAL"),
        ]

    def test_clean_stream_passes(self):
        # a roaming arc is vetted and executed in the survival phase
        events = self.clean_tick(0) + [
            ev(0, 2, "INSTINCT", "verdict", low_id=8, parent_id="SURVIVAL",
               safe=True, predicted_min_clearance=1.0, reason="OK"),
            ev(0, 3, "DEVICE", "exec_wheels", low_id=8, parent_id="SURVIVAL",
               v_left=0.1, v_right=0.1),
            ev(0, 4, "INSTINCT", "command_received", id=1, kind_="MOVE_TO"),
            ev(0, 5, "INSTINCT", "feedback", command_id=1, status="ACCEPTED"),
            ev(0, 6, "INSTINCT", "verdict", low_id=9, parent_id=1, safe=True,
               predicted_min_clearance=1.0, reason="OK"),
            ev(0, 7, "DEVICE", "exec_wheels", low_id=9, parent_id=1,
               v_left=0.5, v_right=0.5),
            ev(0, 8, "INSTINCT", "feedback", command_id=1, status="EXECUTING"),
        ] + self.clean_tick(1) + [
            ev(1, 2, "INSTINCT", "feedback", command_id=1, status="COMPLETED"),
        ]
        assert self.feed(events, allow_in_flight=False) == []

    def test_ordering_violation_detected(self):
        events = self.clean_tick(0) + [ev(0, 1, "DEVICE", "state")]
        assert any("ordering" in v for v in self.feed(events))

    def test_command_event_on_unsafe_tick_detected(self):
        events = self.clean_tick(0, unsafe=True) + [
            ev(0, 2, "INSTINCT", "verdict", low_id=1, parent_id=1, safe=True,
               predicted_min_clearance=1.0, reason="OK"),
        ]
        assert any("unsafe tick" in v for v in self.feed(events))

    def test_survival_after_command_detected(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "INSTINCT", "command_received", id=1, kind_="MOVE_TO"),
            ev(0, 3, "INSTINCT", "governor", scale=0.5, front_min=0.4),
        ]
        assert any("survival event" in v for v in self.feed(events))

    def test_survival_verdict_after_command_detected(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "INSTINCT", "command_received", id=1, kind_="MOVE_TO"),
            ev(0, 3, "INSTINCT", "verdict", low_id=5, parent_id="SURVIVAL",
               safe=False, predicted_min_clearance=0.0,
               reason="OBSTACLE_PREDICTED"),
        ]
        assert any("survival event" in v for v in self.feed(events))

    def test_refused_low_execution_detected(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "INSTINCT", "verdict", low_id=7, parent_id=1,
               safe=False, predicted_min_clearance=0.0,
               reason="OBSTACLE_PREDICTED"),
            ev(0, 3, "DEVICE", "exec_wheels", low_id=7, parent_id=1,
               v_left=0.5, v_right=0.5),
        ]
        violations = self.feed(events)
        assert any("refused low command 7 executed" in v for v in violations)

    def test_earlier_refusal_executed_without_new_verdict_detected(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "INSTINCT", "verdict", low_id=7, parent_id=1,
               safe=False, predicted_min_clearance=0.0,
               reason="OBSTACLE_PREDICTED"),
        ] + self.clean_tick(1) + [
            ev(1, 2, "DEVICE", "exec_wheels", low_id=7, parent_id=1,
               v_left=0.5, v_right=0.5),
        ]
        assert any("low 7 without same-tick" in v for v in self.feed(events))

    def test_earlier_refusal_reapproved_and_executed_detected(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "INSTINCT", "verdict", low_id=7, parent_id=1,
               safe=False, predicted_min_clearance=0.0,
               reason="OBSTACLE_PREDICTED"),
        ] + self.clean_tick(1) + [
            ev(1, 2, "INSTINCT", "verdict", low_id=7, parent_id=1,
               safe=True, predicted_min_clearance=1.0, reason="OK"),
            ev(1, 3, "DEVICE", "exec_wheels", low_id=7, parent_id=1,
               v_left=0.5, v_right=0.5),
        ]
        violations = self.feed(events)
        assert violations
        assert all(re.search(r"\blow (command )?7\b", v) for v in violations)

    def test_repeated_or_decreasing_verdict_id_detected(self):
        def verdict(seq, low_id):
            return ev(0, seq, "INSTINCT", "verdict", low_id=low_id,
                      parent_id="SURVIVAL", safe=True,
                      predicted_min_clearance=1.0, reason="OK")

        repeated = self.clean_tick(0) + [verdict(2, 5), verdict(3, 5)]
        assert self.feed(repeated) == [
            "tick 0: verdict for low 5 after verdict for low 5"]
        decreasing = self.clean_tick(0) + [verdict(2, 6), verdict(3, 4),
                                           verdict(4, 6)]
        assert self.feed(decreasing) == [
            "tick 0: verdict for low 4 after verdict for low 6",
            "tick 0: verdict for low 6 after verdict for low 6"]

    def test_unapproved_execution_detected(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "DEVICE", "exec_wheels", low_id=5, parent_id=1,
               v_left=0.1, v_right=0.1),
        ]
        assert any("without same-tick" in v for v in self.feed(events))

    def test_survival_execution_needs_approval(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "DEVICE", "exec_wheels", low_id=5, parent_id="SURVIVAL",
               v_left=0.1, v_right=0.1),
        ]
        assert any("low 5 without same-tick" in v for v in self.feed(events))

    def test_refused_survival_execution_detected(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "INSTINCT", "verdict", low_id=5, parent_id="SURVIVAL",
               safe=False, predicted_min_clearance=0.0,
               reason="OBSTACLE_PREDICTED"),
            ev(0, 3, "DEVICE", "exec_wheels", low_id=5, parent_id="SURVIVAL",
               v_left=0.1, v_right=0.1),
        ]
        assert any("refused low command 5 executed" in v
                   for v in self.feed(events))

    def test_double_terminal_detected(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "INSTINCT", "command_received", id=1, kind_="STOP"),
            ev(0, 3, "INSTINCT", "feedback", command_id=1, status="COMPLETED"),
            ev(0, 4, "INSTINCT", "feedback", command_id=1, status="COMPLETED"),
        ]
        assert self.feed(events) == [
            "tick 0: feedback for command 1 after terminal status"]

    def test_missing_terminal_detected_when_quiescent(self):
        events = self.clean_tick(0) + [
            ev(0, 2, "INSTINCT", "command_received", id=1, kind_="MOVE_TO"),
            ev(0, 3, "INSTINCT", "feedback", command_id=1, status="ACCEPTED"),
        ]
        assert self.feed(events, allow_in_flight=True) == []
        assert any("no terminal" in v
                   for v in self.feed(events, allow_in_flight=False))

    def test_safe_mode_cancellation_order_accepted(self):
        # unsafe tick: safe-mode feedbacks are survival work, not command work
        events = [
            ev(0, 0, "DEVICE", "state", clearance=0.1, collided=False),
            ev(0, 1, "INSTINCT", "status", safe=False,
               reason="OBSTACLE_PROXIMITY", mode="NORMAL"),
            ev(0, 2, "INSTINCT", "safe_mode_entered",
               reason="OBSTACLE_PROXIMITY"),
            ev(0, 3, "INSTINCT", "feedback", command_id=4,
               status="SAFE_MODE"),
            ev(0, 4, "INSTINCT", "feedback", command_id=None,
               status="SAFE_MODE"),
        ]
        assert self.feed(events) == []


class TestSchemaDoc:
    """``docs/trace_schema.md`` lists exactly the events the program emits."""

    @staticmethod
    def emitted():
        """(layer, kind) of every ``emit`` call in the package, and the
        calls whose layer and kind are not both string literals."""
        pairs, other = set(), []
        for path in sorted((ROOT / "src" / "instinctsim").glob("*.py")):
            for m in re.finditer(r"(def )?\b_?emit\((.*)", path.read_text()):
                if m.group(1):
                    continue
                literal = re.match(r'\s*"([A-Z]+)",\s*"(\w+)"', m.group(2))
                if literal:
                    pairs.add(literal.groups())
                else:
                    other.append(f"{path.name}: emit({m.group(2)}")
        return pairs, other

    @staticmethod
    def documented():
        """(layer, kind) of every row in the doc's event tables."""
        text = (ROOT / "docs" / "trace_schema.md").read_text()
        section = text.split("\n## Event kinds\n", 1)[1].split("\n## ", 1)[0]
        pairs, layer = set(), None
        for line in section.splitlines():
            if line.startswith("### "):
                layer = line[4:].strip()
            elif line.startswith("| `"):
                kinds = re.findall(r"`(\w+)`", line.split("|")[1])
                pairs.update((layer, kind) for kind in kinds)
        return pairs

    def test_event_tables_match_emitted_kinds(self):
        emitted, other = self.emitted()
        # every emit names its layer and kind literally
        assert other == []
        assert ("INSTINCT", "verdict") in emitted
        assert self.documented() == emitted
