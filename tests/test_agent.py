"""Decision-layer tests: reflection, rule planning, fault injection, parsing."""

import json
import math
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instinctsim import runner
from instinctsim.agent import (
    BLOCKED_EXPIRY_TICKS,
    DETOUR_DISTANCE,
    MAX_BATCH_COMMANDS,
    MAX_REPLY_BYTES,
    DecisionAgent,
    LlmBackend,
    ReflectionNote,
    Task,
    TaskState,
    _COMMAND_KEYS,
    _COMMAND_SCHEMA_PROMPT,
    _num,
    hallucinate_wrap,
    parse_llm_commands,
    plan_rule,
    self_reflection,
)
from instinctsim.bus import Channel
from instinctsim.config import AgentParams, ChannelParams, RobotParams
from instinctsim.messages import (
    Feedback,
    FeedbackStatus,
    Goal,
    GoalKind,
    HighCommand,
    HighKind,
    MAX_ROUTE_POINTS,
    MalformedCommandError,
    Mode,
    SafetyVerdict,
    ScanSummary,
    VerdictReason,
)
from instinctsim.scenario import Scenario, TaskSpec
from instinctsim.trace import TraceRecorder
from instinctsim.world import Circle, Pose2D, Rect, WorldModel

ROBOT = RobotParams()
BOUNDS = Rect(-4.0, -4.0, 4.0, 4.0)


def make_summary(pose=Pose2D(0, 0, 0), sector_min=None, tick=0,
                 max_range=5.0):
    sectors = tuple(sector_min) if sector_min else tuple([max_range] * 8)
    nearest = min(range(8), key=lambda k: sectors[k])
    return ScanSummary(
        sector_min=sectors,
        max_range=max_range,
        nearest_bearing=nearest * math.pi / 4.0,
        nearest_range=sectors[nearest],
        pose=pose,
        load=0.0,
        mode=Mode.NORMAL,
        tick=tick,
    )


def make_agent(backend="rule", probability=0.0, seed=0):
    task_ch = Channel("task", 0)
    cmd_ch = Channel("command", 0)
    fb_ch = Channel("feedback", 0)
    data_ch = Channel("data", 0)
    recorder = TraceRecorder()
    agent = DecisionAgent(
        task_channel=task_ch,
        command_channel=cmd_ch,
        feedback_channel=fb_ch,
        data_channel=data_ch,
        recorder=recorder,
        robot=ROBOT,
        params=AgentParams(backend=backend,
                           hallucination_probability=probability),
        bounds=BOUNDS,
        hallucination_rng=random.Random(seed),
    )
    return SimpleNamespace(agent=agent, task=task_ch, command=cmd_ch,
                           feedback=fb_ch, data=data_ch, recorder=recorder)


def refusal_feedback(cmd_id, reason="OBSTACLE_PREDICTED", tick=0):
    return Feedback(cmd_id, FeedbackStatus.REFUSED, reason, tick,
                    SafetyVerdict(False, 0.1, VerdictReason.OBSTACLE_PREDICTED))


class TestSelfReflection:
    def test_refusal_blocks_commanded_sector(self):
        notes = ReflectionNote()
        # command bearing ~10 degrees: sector 0
        cmd = HighCommand(1, HighKind.MOVE_TO, 0,
                          ((2.0 * math.cos(math.radians(10)),
                            2.0 * math.sin(math.radians(10))),))
        self_reflection(notes, [refusal_feedback(1)], make_summary(),
                        {1: cmd}, now=100)
        assert set(notes.blocked_bearings) == {0}
        assert notes.blocked_bearings[0] == 100 + BLOCKED_EXPIRY_TICKS
        assert notes.consecutive_failures == 1

    def test_third_refusal_marks_blocked(self):
        stack = make_agent()
        stack.task.transmit(Task(1, Goal(GoalKind.GOTO, ((3.0, 0.0),))), 0)
        stack.data.transmit(make_summary(), 0)
        for i in range(3):
            now = i * 50
            stack.agent.tick(now)
            sent = stack.command.poll(now)
            assert len(sent) == 1
            stack.feedback.transmit(refusal_feedback(sent[0].id), now + 1)
            stack.data.transmit(make_summary(tick=now + 1), now + 1)
        stack.agent.tick(150)
        assert stack.agent.tasks[0].state is TaskState.BLOCKED

    def test_completion_clears_notes(self):
        notes = ReflectionNote(blocked_bearings={0: 500, 3: 600},
                               consecutive_failures=2)
        self_reflection(notes, [Feedback(1, FeedbackStatus.COMPLETED, "DONE", 0)],
                        make_summary(), {}, now=100)
        assert notes.blocked_bearings == {}
        assert notes.consecutive_failures == 0

    def test_blocked_bearing_expires(self):
        notes = ReflectionNote(blocked_bearings={2: 400})
        notes.expire(399)
        assert 2 in notes.blocked_bearings
        notes.expire(400)
        assert notes.blocked_bearings == {}


class TestPlanRule:
    def next_id(self):
        ids = iter(range(1, 100))
        return lambda: next(ids)

    def test_direct_path(self):
        task = Task(1, Goal(GoalKind.GOTO, ((3.0, 2.0),)))
        cmds = plan_rule(task, ReflectionNote(), make_summary(),
                         self.next_id(), now=0)
        assert len(cmds) == 1
        assert cmds[0].kind is HighKind.MOVE_TO
        assert cmds[0].route == ((3.0, 2.0),)

    def test_detour_when_goal_sector_blocked(self):
        # goal dead ahead: sector 0
        task = Task(1, Goal(GoalKind.GOTO, ((3.0, 0.0),)))
        notes = ReflectionNote(blocked_bearings={0: 10_000})
        cmds = plan_rule(task, notes, make_summary(),
                         self.next_id(), now=0)
        assert len(cmds) == 1
        (wp,) = cmds[0].route
        assert wp != (3.0, 0.0)
        assert math.hypot(*wp) == pytest.approx(DETOUR_DISTANCE)
        # detour heads into an adjacent sector, not the blocked one
        bearing = math.atan2(wp[1], wp[0])
        assert abs(bearing) == pytest.approx(math.pi / 4.0)

    def test_all_sectors_blocked_plans_nothing(self):
        task = Task(1, Goal(GoalKind.GOTO, ((3.0, 0.0),)))
        notes = ReflectionNote(
            blocked_bearings={k: 10_000 for k in range(8)})
        assert plan_rule(task, notes, make_summary(),
                         self.next_id(), now=0) == []

    def test_patrol_heads_for_current_waypoint(self):
        task = Task(1, Goal(GoalKind.PATROL, ((1.0, 0.0), (0.0, 1.0))),
                    waypoint_idx=1)
        cmds = plan_rule(task, ReflectionNote(), make_summary(),
                         self.next_id(), now=0)
        assert cmds[0].route == ((0.0, 1.0),)

    def test_hold_stops(self):
        cmds = plan_rule(Task(1, Goal(GoalKind.HOLD)), ReflectionNote(),
                         make_summary(), self.next_id(), now=0)
        assert cmds[0].kind is HighKind.STOP


class TestHallucinateWrap:
    def plan(self):
        return [HighCommand(i, HighKind.MOVE_TO, 0, ((1.0, float(i)),))
                for i in range(1, 6)]

    def test_probability_zero_is_identity(self):
        out = hallucinate_wrap(self.plan(), 0.0, random.Random(1),
                               make_summary(), BOUNDS, ROBOT, 0)
        assert [c for c, orig in out] == self.plan()
        assert all(orig is None for _, orig in out)

    def test_probability_one_replaces_every_command(self):
        plan = self.plan()
        out = hallucinate_wrap(plan, 1.0, random.Random(1), make_summary(),
                               BOUNDS, ROBOT, 0)
        assert len(out) == len(plan)
        assert all(orig is not None for _, orig in out)
        for cmd, orig in out:
            assert cmd.id == orig.id
            assert cmd is not orig

    def test_seeded_replay_identical(self):
        def run(seed):
            return hallucinate_wrap(self.plan(), 0.5, random.Random(seed),
                                    make_summary(sector_min=[2.0] + [5.0] * 7),
                                    BOUNDS, ROBOT, 0)

        a = [c.to_payload() for c, _ in run(7)]
        b = [c.to_payload() for c, _ in run(7)]
        assert a == b
        c = [cc.to_payload() for cc, _ in run(8)]
        assert a != c

    def test_replacements_stay_wire_valid(self):
        out = hallucinate_wrap(self.plan(), 1.0, random.Random(3),
                               make_summary(sector_min=[1.0, 5, 5, 5, 2, 5, 5, 5]),
                               BOUNDS, ROBOT, 0)
        for cmd, _ in out:
            cmd.validate(ROBOT.v_wheel_max)  # must not raise

    def targeted_sectors(self, summary):
        """Sectors that replacements drive at, over many seeded draws; a
        target outside the bounds drives at no sector."""
        hit = set()
        for seed in range(40):
            for cmd, _ in hallucinate_wrap(self.plan(), 1.0,
                                           random.Random(seed), summary,
                                           BOUNDS, ROBOT, 0):
                x, y = cmd.route[0]
                if BOUNDS.x0 <= x <= BOUNDS.x1 and BOUNDS.y0 <= y <= BOUNDS.y1:
                    hit.add(summary.sector_of(x, y))
        return hit

    def test_a_sector_at_the_summary_range_is_never_a_target(self):
        # 3.5 m is the lidar's range: those sectors have no return
        sectors = [3.5, 1.0, 3.5, 3.5, 2.0, 3.5, 3.5, 3.5]
        summary = make_summary(sector_min=sectors, max_range=3.5)
        assert summary.occupied() == [1, 4]
        assert self.targeted_sectors(summary) == {1, 4}
        # under a longer range every sector holds a return, and is a target
        assert self.targeted_sectors(
            make_summary(sector_min=sectors, max_range=5.0)) == set(range(8))


class TestSummaryFrame:
    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0),
           theta=st.floats(-math.pi, math.pi), distance=st.floats(0.1, 10.0))
    def test_toward_lands_in_its_own_sector(self, x, y, theta, distance):
        summary = make_summary(pose=Pose2D(x, y, theta))
        for k in range(8):
            assert summary.sector_of(*summary.toward(k, distance)) == k

    def test_occupied_is_below_the_summary_range(self):
        sectors = [0.4, 3.5, 3.5 - 1e-12, 3.5, 2.0, 3.5, 3.5, 3.5]
        assert make_summary(sector_min=sectors,
                            max_range=3.5).occupied() == [0, 2, 4]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_FIELD = st.none() | st.integers() | st.floats() | _JSON
_COORD = st.floats(-5.0, 5.0) | st.integers(-5, 5) | _FIELD
_KEY_VALUE = {
    **{key: _COORD for key in ("x", "y", "theta")},
    "speed": st.floats(0.0, 1.0) | _FIELD,
    "waypoints": st.lists(st.lists(_COORD, min_size=2, max_size=2),
                          min_size=1, max_size=3)
    | st.lists(st.lists(_COORD, max_size=3), max_size=3) | _JSON,
}


@st.composite
def _llm_command(draw):
    """An object shaped like a command: a known kind with mostly its own
    keys, mostly numeric, and now and then a key of another kind; or an
    arbitrary JSON kind with any keys. Arbitrary JSON may stand anywhere."""
    # weighted coin flips: hypothesis biases its own small draws, a seeded
    # Random keeps the odds written below
    odds = random.Random(draw(st.integers(0, 2**32 - 1)))
    if odds.random() < 0.1:
        item, own = {"kind": draw(_JSON)}, _KEY_VALUE.keys()
    else:
        kind = draw(st.sampled_from(HighKind))
        item, own = {"kind": kind.value}, _COMMAND_KEYS[kind]
    for key in sorted(own):
        if odds.random() < 0.8:
            item[key] = draw(_KEY_VALUE[key])
    stray = sorted(_KEY_VALUE.keys() - own)
    if stray and odds.random() < 0.1:
        key = draw(st.sampled_from(stray))
        item[key] = draw(_KEY_VALUE[key])
    return item


_LLM_COMMAND = _llm_command()


class TestParseLlmCommands:
    def next_id(self):
        ids = iter(range(1, 100))
        return lambda: next(ids)

    def test_happy_path(self):
        text = 'Sure! Here is the plan: [{"kind": "MOVE_TO", "x": 1.0, "y": 2.0}]'
        cmds = parse_llm_commands(text, 0.5, self.next_id(), now=3)
        assert len(cmds) == 1
        assert cmds[0].kind is HighKind.MOVE_TO
        assert cmds[0].route == ((1.0, 2.0),)
        assert cmds[0].issued_tick == 3

    @pytest.mark.parametrize("text, kind", [
        ('[{"kind": "FLY_TO", "x": 1.0, "y": 2.0}]', "FLY_TO"),
        ('[{"kind": "STOP"}, {"kind": "QUERY_STATUS"}]', "QUERY_STATUS"),
    ])
    def test_unknown_kind_rejects_batch(self, text, kind):
        with pytest.raises(MalformedCommandError,
                           match=f"unknown command kind: '{kind}'"):
            parse_llm_commands(text, 0.5, self.next_id(), now=0)

    def test_out_of_range_speed_rejects_batch(self):
        text = ('[{"kind": "MOVE_TO", "x": 1.0, "y": 2.0},'
                ' {"kind": "MOVE_TO", "x": 0.0, "y": 0.5, "speed": 9.9}]')
        with pytest.raises(MalformedCommandError):
            parse_llm_commands(text, 0.5, self.next_id(), now=0)

    def test_no_array_rejected(self):
        with pytest.raises(MalformedCommandError):
            parse_llm_commands("I cannot help with that.", 0.5,
                               self.next_id(), now=0)

    @pytest.mark.parametrize("reply", [
        None, [{"type": "text", "text": '[{"kind": "STOP"}]'}], 5,
    ])
    def test_non_text_reply_rejected(self, reply):
        with pytest.raises(MalformedCommandError):
            parse_llm_commands(reply, 0.5, self.next_id(), now=0)

    def test_rotate_and_path(self):
        text = ('[{"kind": "ROTATE_TO", "theta": 1.5},'
                ' {"kind": "FOLLOW_PATH", "waypoints": [[1, 0], [1, 1]]},'
                ' {"kind": "STOP"}]')
        cmds = parse_llm_commands(text, 0.5, self.next_id(), now=0)
        assert [c.kind for c in cmds] == [HighKind.ROTATE_TO,
                                          HighKind.FOLLOW_PATH, HighKind.STOP]
        assert cmds[1].route == ((1.0, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize("waypoints", [
        "[[1, 2, 3]]", "[[1, null]]", "5", '"ab"', "[5]", '[["1", "2"]]',
        "[[true, 2]]", "[[1e999, 0]]", "[[1" + "0" * 400 + ", 0]]",
    ])
    def test_malformed_waypoints_reject_batch(self, waypoints):
        text = f'[{{"kind": "FOLLOW_PATH", "waypoints": {waypoints}}}]'
        with pytest.raises(MalformedCommandError):
            parse_llm_commands(text, 0.5, self.next_id(), now=0)

    def test_deeply_nested_array_rejected(self):
        text = "[" * 100_000 + "]" * 100_000
        with pytest.raises(MalformedCommandError):
            parse_llm_commands(text, 0.5, self.next_id(), now=0)

    def test_nesting_within_the_byte_cap_is_unparseable(self):
        depth = MAX_REPLY_BYTES // 2
        with pytest.raises(MalformedCommandError, match="unparseable"):
            parse_llm_commands("[" * depth + "]" * depth, 0.5,
                               self.next_id(), now=0)

    def test_large_batch_rejected_by_name(self):
        move = {"kind": "MOVE_TO", "x": 1.0, "y": 2.0}
        cmds = parse_llm_commands(json.dumps([move] * MAX_BATCH_COMMANDS),
                                  0.5, self.next_id(), now=0)
        assert len(cmds) == MAX_BATCH_COMMANDS
        with pytest.raises(MalformedCommandError,
                           match="batch of 200 commands exceeds 16"):
            parse_llm_commands(json.dumps([move] * 200), 0.5,
                               self.next_id(), now=0)

    def test_oversized_reply_rejected_before_parsing(self):
        path = [[0.001 * i, 1.0] for i in range(200_000)]
        text = json.dumps([{"kind": "FOLLOW_PATH", "waypoints": path}])
        with pytest.raises(MalformedCommandError,
                           match=f"reply of {len(text)} bytes exceeds 65536"):
            parse_llm_commands(text, 0.5, self.next_id(), now=0)

    def test_reply_size_counts_utf8_bytes(self):
        filler = "é" * (MAX_REPLY_BYTES // 2)  # two bytes each
        parse_llm_commands('[{"kind": "STOP"}]' + filler[:-10], 0.5,
                           self.next_id(), now=0)
        with pytest.raises(MalformedCommandError, match="bytes exceeds"):
            parse_llm_commands('[{"kind": "STOP"}]' + filler, 0.5,
                               self.next_id(), now=0)

    def test_long_route_rejected_by_name(self):
        def reply(n):
            return json.dumps([{"kind": "FOLLOW_PATH",
                                "waypoints": [[1, 0]] * n}])

        (cmd,) = parse_llm_commands(reply(MAX_ROUTE_POINTS), 0.5,
                                    self.next_id(), now=0)
        assert len(cmd.route) == MAX_ROUTE_POINTS
        with pytest.raises(MalformedCommandError,
                           match="route of 257 points exceeds 256"):
            parse_llm_commands(reply(MAX_ROUTE_POINTS + 1), 0.5,
                               self.next_id(), now=0)

    def test_route_cap_comes_before_converting_a_point(self, monkeypatch):
        # the longest all-zero route that fits the reply cap
        text = json.dumps([{"kind": "FOLLOW_PATH",
                            "waypoints": [[0, 0]] * 10_916}],
                          separators=(",", ":"))
        assert len(text.encode()) == 65_534 <= MAX_REPLY_BYTES
        calls = []
        monkeypatch.setattr("instinctsim.agent._num",
                            lambda value: calls.append(value) or _num(value))
        with pytest.raises(MalformedCommandError,
                           match="route of 10916 points exceeds 256"):
            parse_llm_commands(text, 0.5, self.next_id(), now=0)
        assert calls == []

    def test_route_cap_comes_before_the_points(self):
        route = ((1.0, 0.0),) * MAX_ROUTE_POINTS + ((math.nan, 0.0),)
        cmd = HighCommand(1, HighKind.FOLLOW_PATH, 0, route)
        with pytest.raises(MalformedCommandError, match="exceeds"):
            cmd.validate(ROBOT.v_wheel_max)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=80),
                     st.lists(_LLM_COMMAND | _JSON, max_size=3).map(json.dumps),
                     _JSON.map(json.dumps)))
    def test_any_text_parses_or_raises_malformed(self, text):
        try:
            cmds = parse_llm_commands(text, 0.5, self.next_id(), now=0)
        except MalformedCommandError:
            return
        for cmd in cmds:
            cmd.validate(0.5)
            for value in (cmd.theta, cmd.speed):
                assert value is None or type(value) is float
            for wp in cmd.route:
                assert len(wp) == 2 and all(type(v) is float for v in wp)

    @pytest.mark.parametrize("item, key", [
        ({"kind": "MOVE_TO", "x": 1, "y": 2, "waypoints": [[5, 5], [6, 6]]},
         "waypoints"),
        ({"kind": "STOP", "x": 3}, "x"),
        ({"kind": "ROTATE_TO", "theta": 1.0, "speed": 0.3}, "speed"),
        ({"kind": "FOLLOW_PATH", "waypoints": [[1, 0]], "x": 9}, "x"),
    ])
    def test_key_of_another_kind_rejects_batch(self, item, key):
        text = json.dumps([{"kind": "STOP"}, item])
        with pytest.raises(MalformedCommandError,
                           match=f"{item['kind']} takes no '{key}'"):
            parse_llm_commands(text, 0.5, self.next_id(), now=0)

    def test_key_no_kind_reads_is_ignored(self):
        text = '[{"kind": "MOVE_TO", "x": 1, "y": 2, "note": "go"}]'
        (cmd,) = parse_llm_commands(text, 0.5, self.next_id(), now=0)
        assert cmd.route == ((1.0, 2.0),)

    @pytest.mark.parametrize("route", [((0.02, 0.0), (2.0, 0.0)),
                                       ((1.0, 1.0),) * 3])
    def test_move_to_takes_exactly_one_point(self, route):
        # the trace records only a MOVE_TO's first point, so a longer route
        # would drive where the trace does not say
        cmd = HighCommand(1, HighKind.MOVE_TO, 0, route)
        with pytest.raises(MalformedCommandError,
                           match="MOVE_TO takes exactly one point, got "
                                 f"{len(route)}"):
            cmd.validate(ROBOT.v_wheel_max)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_schema_round_trips(self, data):
        point = st.tuples(_FINITE, _FINITE)
        kind = data.draw(st.sampled_from(HighKind))
        route, theta, speed = (), None, None
        if kind is HighKind.MOVE_TO:
            route = (data.draw(point),)
        elif kind is HighKind.FOLLOW_PATH:
            route = tuple(data.draw(st.lists(point, min_size=1, max_size=5)))
        elif kind is HighKind.ROTATE_TO:
            theta = data.draw(_FINITE)
        if route:
            speed = data.draw(st.none() | st.floats(
                0.0, ROBOT.v_wheel_max, exclude_min=True))
        cmd = HighCommand(7, kind, 3, route, theta, speed)
        cmd.validate(ROBOT.v_wheel_max)
        text = json.dumps([cmd.to_payload()])
        assert parse_llm_commands(text, ROBOT.v_wheel_max, lambda: 7,
                                  now=3) == [cmd]

    def test_schema_prompt_names_every_kind_and_key(self):
        lines = _COMMAND_SCHEMA_PROMPT.splitlines()
        for kind in HighKind:
            (line,) = [ln for ln in lines if f'"kind": "{kind.value}"' in ln]
            for key in _COMMAND_KEYS[kind]:
                assert f'"{key}"' in line, (kind, key)


class TestLlmBackend:
    def test_adapter_posts_and_retries(self):
        calls = []

        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": '[{"kind": "STOP"}]'}}]}

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append((url, timeout))
            if len(calls) == 1:
                raise OSError("transient")
            return FakeResponse()

        backend = LlmBackend(model="m", url="http://example/llm",
                             api_key="k", post=fake_post)
        text = backend.complete(0.5, Task(1, Goal(GoalKind.HOLD)),
                                make_summary())
        assert "STOP" in text
        assert len(calls) == 2  # one retry
        assert calls[0][1] == 10.0

    def test_missing_requests_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        with pytest.raises(RuntimeError, match=r"pip install instinctsim\[llm\]"):
            LlmBackend(url="http://example/llm")

    def test_unconfigured_url_raises(self):
        backend = LlmBackend(url="", post=lambda *a, **k: None)
        with pytest.raises(RuntimeError):
            backend.complete(0.5, Task(1, Goal(GoalKind.HOLD)),
                             make_summary())


class TestAgentTick:
    def test_fresh_goto_sends_exactly_one_move(self):
        stack = make_agent()
        stack.task.transmit(Task(1, Goal(GoalKind.GOTO, ((3.0, 2.0),))), 0)
        stack.data.transmit(make_summary(), 0)
        stack.agent.tick(0)
        sent = stack.command.poll(0)
        assert len(sent) == 1
        assert sent[0].kind is HighKind.MOVE_TO
        assert stack.agent.tasks[0].state is TaskState.ACTIVE

    def test_no_summary_means_no_commands(self):
        stack = make_agent()
        stack.task.transmit(Task(1, Goal(GoalKind.GOTO, ((3.0, 2.0),))), 0)
        stack.agent.tick(0)
        assert stack.command.poll(0) == []

    def test_single_in_flight(self):
        stack = make_agent()
        stack.task.transmit(Task(1, Goal(GoalKind.GOTO, ((3.0, 2.0),))), 0)
        stack.data.transmit(make_summary(), 0)
        stack.agent.tick(0)
        assert len(stack.command.poll(0)) == 1
        # no terminal feedback yet: the next wake must not emit motion
        stack.data.transmit(make_summary(tick=50), 50)
        stack.agent.tick(50)
        assert stack.command.poll(50) == []

    def test_completion_rule_within_tolerance(self):
        stack = make_agent()
        stack.task.transmit(Task(1, Goal(GoalKind.GOTO, ((3.0, 2.0),))), 0)
        stack.data.transmit(make_summary(), 0)
        stack.agent.tick(0)
        cmd = stack.command.poll(0)[0]
        # robot reports a pose within 0.1 m of the goal at completion
        stack.data.transmit(make_summary(pose=Pose2D(2.95, 2.0, 0.0), tick=49),
                            49)
        stack.feedback.transmit(
            Feedback(cmd.id, FeedbackStatus.COMPLETED, "DONE", 49), 49)
        stack.agent.tick(50)
        assert stack.agent.tasks[0].state is TaskState.COMPLETED

    def test_completion_far_from_goal_replans(self):
        stack = make_agent()
        stack.task.transmit(Task(1, Goal(GoalKind.GOTO, ((3.0, 2.0),))), 0)
        stack.data.transmit(make_summary(), 0)
        stack.agent.tick(0)
        cmd = stack.command.poll(0)[0]
        stack.data.transmit(make_summary(pose=Pose2D(1.0, 1.0, 0.0), tick=49),
                            49)
        stack.feedback.transmit(
            Feedback(cmd.id, FeedbackStatus.COMPLETED, "DONE", 49), 49)
        stack.agent.tick(50)
        assert stack.agent.tasks[0].state is TaskState.ACTIVE
        assert len(stack.command.poll(50)) == 1  # replanned toward the goal

    @staticmethod
    def _fixed_llm_reply(monkeypatch, content):
        """Route the run's LLM backend to a stub that always replies
        ``content``; nothing goes over the network."""
        class Reply:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": content}}]}

        monkeypatch.setattr(runner, "LlmBackend", lambda model: LlmBackend(
            model=model, url="http://example/llm",
            post=lambda *args, **kwargs: Reply()))

    def test_task_ends_once(self, monkeypatch):
        # five MOVE_TOs through an obstacle: the instinct layer refuses them
        # all in one tick, so one feedback batch carries five terminal
        # REFUSED; the third blocks the task, and the rest must not block
        # it again
        self._fixed_llm_reply(monkeypatch, json.dumps(
            [{"kind": "MOVE_TO", "x": 2.0, "y": 0.0, "speed": 0.5}] * 5))
        sc = Scenario(ticks=400, agent=AgentParams(backend="llm"),
                      world=WorldModel(bounds=BOUNDS,
                                       circles=(Circle(0.9, 0.0, 0.4),)),
                      tasks=(TaskSpec(0, Goal(GoalKind.GOTO,
                                              ((3.0, 0.0),))),))
        events, metrics = runner.run_sim(sc)
        blocked = [e for e in events if e.kind == "task_blocked"]
        assert len(blocked) == 1
        assert metrics.tasks_blocked == 1

    def test_null_llm_content_is_a_rejected_plan(self, monkeypatch):
        self._fixed_llm_reply(monkeypatch, None)
        sc = Scenario(ticks=200, agent=AgentParams(backend="llm"),
                      tasks=(TaskSpec(0, Goal(GoalKind.GOTO,
                                              ((1.0, 1.0),))),))
        kinds = [e.kind for e in runner.run_sim(sc)[0]]
        assert "plan_rejected" in kinds
        assert "agent_crashed" not in kinds

    def test_status_query_flood_is_a_rejected_plan(self, monkeypatch):
        # 500 status queries per wake-up: an unknown kind, so every batch
        # is rejected whole and nothing reaches the instinct queue
        self._fixed_llm_reply(monkeypatch,
                              json.dumps([{"kind": "QUERY_STATUS"}] * 500))
        sc = Scenario(ticks=300, agent=AgentParams(backend="llm"),
                      tasks=(TaskSpec(0, Goal(GoalKind.GOTO,
                                              ((1.0, 1.0),))),))
        kinds = []
        rt = runner.build_runtime(sc, sinks=[lambda e: kinds.append(e.kind)])
        for now in range(sc.ticks):
            rt.step(now)
            if now % sc.agent.period_ticks == 0:
                rt.agent_step(now)
            assert not rt.instinct.queue
        assert "plan_rejected" in kinds
        assert "command_sent" not in kinds
        assert "agent_crashed" not in kinds

    @pytest.mark.parametrize("drop", [0.0, 0.2])
    def test_sent_commands_forgotten_once_terminal(self, drop):
        # a rule-planned patrol around a 0.5 m square, run for 6,000 ticks;
        # on lossy channels a command given up as lost is forgotten too
        route = ((0.5, 0.0), (0.5, 0.5), (0.0, 0.5), (0.0, 0.0)) * 20
        sc = Scenario(ticks=6000,
                      channels=ChannelParams(command_drop=drop,
                                             feedback_drop=drop),
                      tasks=(TaskSpec(0, Goal(GoalKind.PATROL, route)),))
        sent = []
        rt = runner.build_runtime(sc, store_trace=False, sinks=[
            lambda e: e.kind == "command_sent" and sent.append(e.tick)])
        peak = 0
        for now in range(sc.ticks):
            rt.step(now)
            if now % sc.agent.period_ticks == 0:
                rt.agent_step(now)
            peak = max(peak, len(rt.agent.sent_commands))
        assert len(sent) >= 15
        assert peak <= 2

    def test_tasks_processed_fifo(self):
        stack = make_agent()
        stack.task.transmit(Task(1, Goal(GoalKind.HOLD)), 0)
        stack.task.transmit(Task(2, Goal(GoalKind.GOTO, ((1.0, 0.0),))), 0)
        stack.data.transmit(make_summary(), 0)
        stack.agent.tick(0)
        sent = stack.command.poll(0)
        assert [c.kind for c in sent] == [HighKind.STOP]
        assert stack.agent.tasks[0].state is TaskState.ACTIVE
        assert stack.agent.tasks[1].state is TaskState.PENDING
