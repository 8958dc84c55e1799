"""End-to-end run tests: determinism, dropout, attribution, CLI, live mode."""

import hashlib
import json
from dataclasses import replace
import math
from pathlib import Path

import pytest

from instinctsim import agent as agent_module
from instinctsim import cli as cli_module
from instinctsim.cli import main as cli_main
from instinctsim.config import AgentParams, InstinctParams
from instinctsim.messages import Goal, GoalKind
from instinctsim.oracle import gen_scenario, oracle_safety
from instinctsim.runner import build_runtime, run_live, run_sim
from instinctsim.scenario import (
    Scenario,
    TaskSpec,
    load_scenario,
    parse_scenario,
    random_scenario,
    save_scenario,
)
from instinctsim.trace import (
    TraceAuditor,
    read_trace,
    recompute_metrics,
    write_trace,
)
from instinctsim.world import Circle, DeviceSim, Pose2D, Rect, WorldModel

DEMO_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"


def small_scenario(seed=0, ticks=600, backend="rule", probability=0.0):
    world = WorldModel(bounds=Rect(-4, -4, 4, 4),
                       circles=(Circle(1.5, 0.8, 0.4),))
    return Scenario(
        name="small",
        seed=seed,
        ticks=ticks,
        world=world,
        start=Pose2D(0, 0, 0),
        agent=AgentParams(backend=backend,
                          hallucination_probability=probability),
        tasks=(TaskSpec(0, Goal(GoalKind.GOTO, ((3.0, -2.0),))),),
    )


class TestDeterminism:
    def test_identical_trace_bytes(self, tmp_path):
        paths = []
        for i in range(2):
            trace, _ = run_sim(small_scenario())
            path = tmp_path / f"t{i}.jsonl"
            write_trace(trace, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_hallucinated_trace(self):
        t1, m1 = run_sim(small_scenario(seed=1, backend="hallucinate",
                                        probability=1.0))
        t2, m2 = run_sim(small_scenario(seed=2, backend="hallucinate",
                                        probability=1.0))
        assert m1.hallucinated_commands >= 1
        assert m2.hallucinated_commands >= 1
        assert [e.payload for e in t1] != [e.payload for e in t2]

    def test_metrics_recompute_from_trace(self):
        trace, metrics = run_sim(small_scenario(backend="hallucinate",
                                                probability=0.4, seed=3))
        assert recompute_metrics(trace).replay_dict() == metrics.replay_dict()

    def test_pinned_trace_digests(self, tmp_path):
        """The deterministic traces of four fixed runs, pinned by sha256.

        A change that only restructures code must leave these bytes alone.
        The pins are platform-specific: the trace carries floats from libm
        (sin, cos, atan2), so another libm may round differently. A change
        that means to alter traces updates the pins and names the trace
        change in CHANGES.md.
        """
        hallucinating = replace(
            small_scenario(backend="hallucinate", probability=0.3),
            agent=AgentParams(backend="hallucinate",
                              hallucination_probability=0.3, kill_tick=120))
        # idle roaming after the agent dies: roam_intent, braking from up
        # to full wheel speed, and two safe-mode entries and exits
        roaming = replace(
            small_scenario(ticks=2000),
            instinct=InstinctParams(roaming=True),
            agent=AgentParams(backend="rule", kill_tick=100))
        # every command hallucinated: two refused before the kill at 400
        refusing = replace(
            small_scenario(seed=4, backend="hallucinate", probability=1.0),
            agent=AgentParams(backend="hallucinate",
                              hallucination_probability=1.0, kill_tick=400))
        pins = {
            "demo": (load_scenario(str(DEMO_SCENARIO)),
                     "545eebabcc04cd0b17f2372a3691337a"
                     "cbf0c025d8f8fdb01935097201b38eaa"),
            "hallucinate_kill120": (hallucinating,
                                    "6467c22be3360063f968229c9f107ed5"
                                    "86ea1902bd50cda4fc2a9f396249f034"),
            "roaming_kill100": (roaming,
                                "c7aa0a232b6f42c365a8a0e4ad4ce06b"
                                "bbbef812c46be4cabcd8f20fb7ef83d3"),
            "hallucinate_refusals_kill400": (refusing,
                                             "c4fa6859394f5ab1f0a77e92b596fc9e"
                                             "01d73c77f4c64fc0075b0b8c90032b5e"),
        }
        for name, (sc, pinned) in pins.items():
            path = tmp_path / f"{name}.jsonl"
            write_trace(run_sim(sc)[0], str(path))
            assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned, name
        refused = [e.tick for e in read_trace(
                       str(tmp_path / "hallucinate_refusals_kill400.jsonl"))
                   if e.kind == "verdict" and not e.payload["safe"]
                   and e.payload["parent_id"] != "SURVIVAL"]
        assert [t for t in refused if t < 400]

    def test_pinned_oracle_digest(self):
        """The oracle's verdicts on generated cases, pinned by one sha256
        over ``(safe, repr(clearance), reason)`` of each: seeds 0-1999 at
        the default ``dt_fine`` and seeds 0-199 at 0.001 s.

        A change to how the oracle integrates or measures must leave these
        bits alone. Like the trace pins, this one is platform-specific: the
        path carries sin and cos, which another libm or NumPy build may round
        differently.
        """
        digest = hashlib.sha256()
        for dt_fine, seeds in ((0.002, 2000), (0.001, 200)):
            for seed in range(seeds):
                v = oracle_safety(gen_scenario(seed), dt_fine=dt_fine)
                digest.update(f"{v.safe}|{v.predicted_min_clearance!r}|"
                              f"{v.reason.value}\n".encode())
        assert digest.hexdigest() == ("939afd733601c4d517172310b23b337a"
                                      "081ce5eacc4add6b32bf1fd9cc369624")

    def test_pinned_scenario_bytes(self, tmp_path):
        """The ``save_scenario`` bytes of the demo and of 120 generated
        scenarios, pinned by one sha256 over all of them in order.

        A change to how scenarios are read, held or written must leave the
        file format alone. Like the trace pins, this one is platform-specific:
        the generated worlds carry floats from libm. A change that means to
        alter the format updates the pin and names it in CHANGES.md.
        """
        scenarios = [load_scenario(str(DEMO_SCENARIO))]
        for seed in range(30):
            for roaming in (False, True):
                for kill_tick in (None, 500):
                    scenarios.append(random_scenario(
                        seed, roaming=roaming, kill_tick=kill_tick))
        digest = hashlib.sha256()
        path = tmp_path / "scenario.json"
        for sc in scenarios:
            save_scenario(sc, str(path))
            digest.update(path.read_bytes())
        assert digest.hexdigest() == ("f564575be350fc3292a7b7fd4711a8e3"
                                      "c6a184ee5c20696f635f9dc75705872e")

    def test_trace_strictly_ordered(self):
        trace, _ = run_sim(small_scenario())
        keys = [(e.tick, e.seq) for e in trace]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestAgentDropout:
    def test_instinct_continues_after_kill(self):
        sc = small_scenario(ticks=400)
        sc = Scenario(**{**sc.__dict__,
                         "agent": AgentParams(backend="rule", kill_tick=100)})
        trace, metrics = run_sim(sc)
        status_ticks = [e.tick for e in trace
                        if e.layer == "INSTINCT" and e.kind == "status"]
        assert status_ticks == list(range(400))
        assert metrics.collisions == 0
        decision_ticks = [e.tick for e in trace if e.layer == "DECISION"]
        assert all(t < 100 for t in decision_ticks)

    def test_agent_exception_is_agent_death(self, monkeypatch):
        # the third plan raises: the agent dies at that tick, the run goes on
        calls = []
        plan_rule = agent_module.plan_rule

        def failing_plan_rule(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise ValueError("planner fault")
            return plan_rule(*args, **kwargs)

        monkeypatch.setattr(agent_module, "plan_rule", failing_plan_rule)
        sc = replace(small_scenario(ticks=400),
                     tasks=(TaskSpec(0, Goal(GoalKind.HOLD)),
                            TaskSpec(0, Goal(GoalKind.HOLD)),
                            TaskSpec(0, Goal(GoalKind.GOTO, ((3.0, -2.0),)))))
        auditor = TraceAuditor()
        trace, metrics = run_sim(sc, sinks=[auditor])
        assert [e.tick for e in trace
                if e.layer == "INSTINCT" and e.kind == "status"] == \
            list(range(400))
        crashes = [i for i, e in enumerate(trace) if e.kind == "agent_crashed"]
        assert len(crashes) == 1
        crash = trace[crashes[0]]
        assert crash.layer == "DECISION"
        assert crash.payload == {"error": "ValueError: planner fault"}
        assert not [e for e in trace[crashes[0] + 1:] if e.layer == "DECISION"]
        assert metrics.collisions == 0
        assert auditor.finish() == []
        assert recompute_metrics(trace).replay_dict() == metrics.replay_dict()

    def test_dead_agent_inbox_is_drained(self):
        # nothing reads a dead agent's channels but the drain: summaries
        # keep coming every tick, and only the last few may be pending
        sc = replace(small_scenario(ticks=10_000),
                     agent=AgentParams(backend="rule", kill_tick=100))
        rt = build_runtime(sc, store_trace=False)
        for now in range(sc.ticks):
            rt.step(now)
            if now % sc.agent.period_ticks == 0:
                rt.agent_step(now)
        agent = rt.agent
        assert agent.data_channel.pending() <= (sc.agent.period_ticks
                                                + sc.channels.data_latency)
        assert agent.feedback_channel.pending() <= (
            sc.agent.period_ticks + sc.channels.feedback_latency)
        assert agent.task_channel.pending() == 0

    def test_kill_at_zero_equals_no_agent_events(self):
        sc = small_scenario(ticks=200)
        sc = Scenario(**{**sc.__dict__,
                         "agent": AgentParams(backend="rule", kill_tick=0)})
        trace, _ = run_sim(sc)
        assert not [e for e in trace if e.layer == "DECISION"]
        assert [e.tick for e in trace
                if e.layer == "INSTINCT" and e.kind == "status"] == \
            list(range(200))


class TestRunLevelInvariants:
    def test_auditor_clean_on_hallucinated_run(self):
        auditor = TraceAuditor()
        run_sim(small_scenario(backend="hallucinate", probability=0.5,
                               seed=5, ticks=1500),
                store_trace=False, sinks=[auditor])
        assert auditor.finish() == []

    @pytest.mark.parametrize("roaming", [False, True])
    def test_every_execution_has_same_tick_approval(self, roaming):
        # with roaming on, the robot roams after the agent dies at tick 100
        sc = small_scenario(ticks=800)
        if roaming:
            sc = replace(sc, instinct=InstinctParams(roaming=True),
                         agent=AgentParams(backend="rule", kill_tick=100))
        trace, _ = run_sim(sc)
        approvals = {}
        parents = set()
        for e in trace:
            if e.layer == "INSTINCT" and e.kind == "verdict" and \
                    e.payload["safe"]:
                approvals.setdefault(e.tick, set()).add(e.payload["low_id"])
            elif e.layer == "DEVICE" and e.kind.startswith("exec_"):
                assert e.payload["low_id"] in approvals.get(e.tick, set())
                parents.add(e.payload["parent_id"] == "SURVIVAL")
        assert parents == ({False, True} if roaming else {False})

    def test_each_step_drives_what_the_tick_before_executed_last(
            self, monkeypatch):
        # the check certifies a one-tick hold, then braking: each device
        # step drives the previous tick's last executed wheel speeds, and
        # zero targets after a tick that executed nothing or a stop
        targets = []
        step = DeviceSim.step

        def recording(self, dt):
            targets.append((self.cmd_v_left, self.cmd_v_right))
            return step(self, dt)

        monkeypatch.setattr(DeviceSim, "step", recording)
        sc = random_scenario(27, roaming=True, kill_tick=200, ticks=600,
                             min_separation=3.0)
        trace, metrics = run_sim(sc)
        last = {}
        for e in trace:
            if e.kind == "exec_wheels":
                last[e.tick] = (e.payload["v_left"], e.payload["v_right"])
            elif e.kind == "exec_stop":
                last[e.tick] = (0.0, 0.0)
        assert len(targets) == metrics.ticks
        assert targets == [last.get(now - 1, (0.0, 0.0))
                           for now in range(metrics.ticks)]
        # the run covers hallucinated commands, roaming, safe mode and
        # ticks that execute nothing
        kinds = {e.kind for e in trace}
        assert {"hallucination", "safe_mode_entered"} <= kinds
        assert any(e.kind == "exec_wheels"
                   and e.payload["parent_id"] == "SURVIVAL" for e in trace)
        assert len(last) < metrics.ticks

    def test_runtime_result_reads_its_own_accumulator(self):
        seen = []
        rt = build_runtime(small_scenario(), sinks=[seen.append])
        for now in range(5):
            rt.step(now)
        events, metrics = rt.result()
        assert events == seen  # the accumulator is an extra, first sink
        assert metrics is rt.accumulator.metrics
        assert metrics.ticks == 5
        assert metrics.timing["ticks"] == 5

    def test_run_ends_when_tasks_terminal(self):
        trace, metrics = run_sim(small_scenario(ticks=6000))
        assert metrics.tasks_completed == 1
        assert metrics.ticks < 6000

    def test_task_issued_between_agent_wakes_is_run(self):
        # the first task is done when the second is issued at tick 130, off
        # the 50-tick agent period: the run waits for the agent to take it
        sc = replace(small_scenario(ticks=600),
                     tasks=(TaskSpec(0, Goal(GoalKind.HOLD)),
                            TaskSpec(130, Goal(GoalKind.HOLD))))
        _, metrics = run_sim(sc)
        assert metrics.tasks_completed == 2

    def test_channel_conservation_under_drops(self):
        # every sent message is exactly one of delivered, dropped (traced at
        # BUS), or still pending in the queue when the run stops
        from instinctsim.runner import build_runtime

        sc = small_scenario(seed=4, ticks=800)
        sc = Scenario(**{**sc.__dict__,
                         "channels": replace(sc.channels, feedback_drop=0.3,
                                             data_drop=0.2)})
        rt = build_runtime(sc)
        channels = (rt.instinct.feedback_channel, rt.instinct.data_channel)
        counts = {ch.name: {"sent": 0, "delivered": 0, "dropped": 0}
                  for ch in channels}

        def count(ch):
            transmit, poll, n = ch.transmit, ch.poll, counts[ch.name]

            def counted_transmit(msg, now):
                n["sent"] += 1
                ok = transmit(msg, now)
                n["dropped"] += not ok
                return ok

            def counted_poll(now):
                out = poll(now)
                n["delivered"] += len(out)
                return out

            ch.transmit, ch.poll = counted_transmit, counted_poll

        for ch in channels:
            count(ch)
        for now in range(sc.ticks):
            rt.step(now)
            if now % sc.agent.period_ticks == 0:
                rt.agent_step(now)
        traced_drops = {}
        for e in rt.recorder.events:
            if e.layer == "BUS" and e.kind == "dropped":
                ch = e.payload["channel"]
                traced_drops[ch] = traced_drops.get(ch, 0) + 1
        for ch in channels:
            n = counts[ch.name]
            assert n["dropped"] > 0, f"{ch.name} never dropped"
            assert n["sent"] == n["delivered"] + n["dropped"] + ch.pending()
            assert traced_drops.get(ch.name, 0) == n["dropped"]

    @pytest.mark.parametrize("seed", [0, 2, 14])
    def test_lost_feedback_does_not_stall_the_agent(self, seed):
        # each seed drops the terminal feedback of an in-flight command; the
        # agent gives it up after the silence and plans on to a terminal task
        sc = random_scenario(seed, backend="rule", ticks=6000)
        sc = replace(sc, channels=replace(sc.channels, feedback_drop=0.2))
        auditor = TraceAuditor()
        trace, metrics = run_sim(sc, sinks=[auditor])
        assert metrics.tasks_completed + metrics.tasks_blocked == 1
        assert metrics.ticks < 6000
        lost = [e for e in trace if e.kind == "command_lost"]
        assert lost and all(e.layer == "DECISION" for e in lost)
        assert auditor.finish() == []


class TestBaselineTask:
    def test_goto_completes_within_budget(self):
        sc = Scenario(
            name="baseline",
            world=WorldModel(bounds=Rect(-4, -4, 4, 4)),
            tasks=(TaskSpec(0, Goal(GoalKind.GOTO, ((3.0, 2.0),))),),
        )
        trace, metrics = run_sim(sc)
        assert metrics.tasks_completed == 1
        assert metrics.ticks <= 6000
        final = [e for e in trace
                 if e.layer == "DEVICE" and e.kind == "state"][-1].payload
        assert math.hypot(final["x"] - 3.0, final["y"] - 2.0) <= 0.1


class TestCli:
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(small_scenario(ticks=400), str(path))
        return path

    def test_clean_run_exit_zero(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path)
        trace_out = tmp_path / "trace.jsonl"
        metrics_out = tmp_path / "metrics.json"
        code = cli_main(["--scenario", str(path),
                         "--trace-out", str(trace_out),
                         "--metrics-out", str(metrics_out)])
        assert code == 0
        assert "collisions=0" in capsys.readouterr().out
        assert trace_out.exists()
        metrics = json.loads(metrics_out.read_text())
        assert metrics["ticks"] > 0
        events = read_trace(str(trace_out))
        assert recompute_metrics(events).replay_dict() == {
            k: v for k, v in metrics.items() if k != "timing"}

    def test_validation_error_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"world": {"bounds": {"min": [0, 0],
                                                         "max": [1, 1]}},
                                    "robo_speed": 2}))
        code = cli_main(["--scenario", str(path)])
        assert code == 2
        assert "robo_speed" in capsys.readouterr().err

    def test_agent_and_seed_overrides(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path)
        code = cli_main(["--scenario", str(path), "--seed", "9",
                         "--agent", "hallucinate",
                         "--hallucination-prob", "1.0", "--ticks", "300"])
        assert code == 0

    @pytest.mark.parametrize("write", [False, True])
    def test_trace_stored_only_when_written(self, tmp_path, monkeypatch,
                                            write):
        stored = []

        def recording_run_sim(scenario, store_trace=True):
            stored.append(store_trace)
            return run_sim(scenario, store_trace=store_trace)

        monkeypatch.setattr(cli_module, "run_sim", recording_run_sim)
        trace_out = tmp_path / "trace.jsonl"
        flags = ["--trace-out", str(trace_out)] if write else []
        assert cli_main(["--scenario", str(self.scenario_file(tmp_path)),
                         *flags]) == 0
        assert stored == [write]
        assert trace_out.exists() == write
        if write:
            assert trace_out.read_text().count("\n") > 400

    @pytest.mark.parametrize("flag, what", [("--trace-out", "trace"),
                                            ("--metrics-out", "metrics")])
    def test_empty_output_path_is_an_error(self, tmp_path, capsys, flag,
                                           what):
        path = self.scenario_file(tmp_path)
        assert cli_main(["--scenario", str(path), flag, ""]) == 1
        assert f"cannot write {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--ticks", "-1"], "scenario.ticks must be >= 0"),
        (["--hallucination-prob", "1.5"],
         "agent.hallucination_probability must be in [0, 1]"),
        (["--hallucination-prob", "nan"],
         "agent.hallucination_probability must be finite"),
    ])
    def test_bad_override_names_scenario_field(self, tmp_path, capsys,
                                               flags, message):
        path = self.scenario_file(tmp_path)
        assert cli_main(["--scenario", str(path), *flags]) == 2
        assert message in capsys.readouterr().err


class TestLiveMode:
    def test_short_live_run_is_safe_and_traced(self):
        sc = small_scenario(ticks=150)
        trace, metrics = run_live(sc)
        assert metrics.ticks == 150
        assert metrics.collisions == 0
        assert [e for e in trace if e.layer == "INSTINCT"]

    def test_live_run_counts_a_collision(self):
        # start 0.1 m from the circle's surface, inside the 0.15 m body radius
        sc = replace(small_scenario(ticks=30), start=Pose2D(1.0, 0.8, 0.0))
        trace, metrics = run_live(sc)
        assert [e.kind for e in trace].count("collision") == 1
        assert metrics.collisions == 1
        assert metrics.collisions == run_sim(sc)[1].collisions

    def test_live_run_issues_every_task(self):
        # the second task is issued after the first one completes
        sc = replace(small_scenario(ticks=300),
                     tasks=(TaskSpec(0, Goal(GoalKind.HOLD)),
                            TaskSpec(150, Goal(GoalKind.HOLD))))
        trace, metrics = run_live(sc)
        assert [e.kind for e in trace].count("task_issued") == 2
        assert metrics.tasks_completed == 2
