"""Safety-layer tests: summaries, status, safe mode, conversion, vetting."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_stack
from instinctsim.config import InstinctParams, PHYSICS_DT, RobotParams
from instinctsim.instinct import (
    InstinctController,
    ObstacleBelief,
    convert,
    front_min_range,
    predict_trajectory,
    roam_intent,
    safety_check,
    summarize,
)
from instinctsim.messages import (
    FeedbackStatus,
    HighCommand,
    HighKind,
    LowCommand,
    LowKind,
    MAX_QUEUED_COMMANDS,
    MAX_ROUTE_POINTS,
    Mode,
    SafetyVerdict,
    ScanSummary,
    VerdictReason,
    sector_index,
)
from instinctsim.oracle import ScenarioCase, oracle_safety
from instinctsim.world import (
    Circle,
    LidarScan,
    Pose2D,
    Rect,
    RobotState,
    WorldModel,
    scan,
    step_world,
    wrap_angle,
)

ROBOT = RobotParams()
PARAMS = InstinctParams()
BOUNDS = Rect(-4.0, -4.0, 4.0, 4.0)


def make_scan(ranges, theta=0.0, max_range=5.0):
    arr = np.asarray(ranges, dtype=float)
    return LidarScan(ranges=arr, origin=Pose2D(0.0, 0.0, theta),
                     max_range=max_range)


def idle_state(pose=Pose2D(0, 0, 0), **kw):
    return RobotState(pose=pose, **kw)


class TestSummarize:
    def test_all_capped(self):
        s = summarize(make_scan([5.0] * 36), idle_state(), Mode.NORMAL, 0)
        assert s.sector_min == tuple([5.0] * 8)
        assert s.nearest_range == 5.0

    def test_single_front_beam(self):
        ranges = [5.0] * 36
        ranges[0] = 1.5
        s = summarize(make_scan(ranges), idle_state(), Mode.NORMAL, 0)
        assert s.sector_min[0] == 1.5
        assert s.sector_min[1:] == tuple([5.0] * 7)
        assert (s.nearest_bearing, s.nearest_range) == (0.0, 1.5)

    def test_sector_minima_match_brute_force(self):
        rng = random.Random(17)
        for _ in range(25):
            ranges = [rng.uniform(0.2, 5.0) for _ in range(36)]
            s = summarize(make_scan(ranges), idle_state(), Mode.NORMAL, 0)
            # brute force: bucket each beam by its wrapped relative bearing
            expected = [5.0] * 8
            for i, r in enumerate(ranges):
                bearing = wrap_angle(i * 2.0 * math.pi / 36)
                k = sector_index(bearing)
                expected[k] = min(expected[k], r)
            for k in range(8):
                assert s.sector_min[k] == pytest.approx(expected[k])
            assert s.nearest_range == pytest.approx(min(ranges))

    def test_carries_robot_state(self):
        # the pose is the sweep's origin, the frame its sectors are in; the
        # state gives only the load
        sweep = LidarScan(ranges=np.full(36, 5.0), origin=Pose2D(1, 2, 0.5),
                          max_range=5.0)
        state = idle_state(pose=Pose2D(-1, 0, 2.0), load=0.3)
        s = summarize(sweep, state, Mode.SAFE, 7)
        assert s.pose == sweep.origin
        assert s.load == 0.3
        assert s.mode is Mode.SAFE
        assert s.tick == 7

    def test_controller_summary_carries_the_lidar_range(self):
        stack = make_stack()
        stack.device.lidar = replace(stack.device.lidar, max_range=3.5)
        stack.controller.tick(0)
        (s,) = stack.data.poll(0)
        assert s.max_range == 3.5
        assert s.sector_min == (3.5,) * 8  # an empty world returns nothing
        assert s.occupied() == []

    def test_summary_takes_its_frame_from_the_sweep(self):
        # a stack at heading pi/2 given a sweep cast at heading 0: the
        # sectors lie in the sweep's frame, so sector 0 points along +x,
        # at the circle the sweep saw dead ahead
        world = WorldModel(bounds=Rect(-4, -4, 4, 4),
                           circles=(Circle(2.0, 0.0, 0.3),))
        stack = make_stack(world=world, pose=Pose2D(0.0, 0.0, math.pi / 2))
        sweep = scan(world, Pose2D(0.0, 0.0, 0.0), 36, 5.0)
        stack.device.acquire_scan = lambda: sweep
        stack.controller.tick(0)
        (s,) = stack.data.poll(0)
        assert s.pose == sweep.origin
        assert s.nearest_bearing == 0.0
        assert s.sector_min[0] == pytest.approx(1.7)
        assert s.toward(0, 1.6) == pytest.approx((1.6, 0.0))
        assert s.sector_of(2.0, 0.0) == 0


class TestFrontMin:
    def test_front_sector_is_plus_minus_45(self):
        ranges = [5.0] * 36
        ranges[4] = 1.0   # +40 degrees: inside
        assert front_min_range(make_scan(ranges)) == 1.0
        ranges = [5.0] * 36
        ranges[5] = 1.0   # +50 degrees: outside
        assert front_min_range(make_scan(ranges)) == 5.0
        ranges = [5.0] * 36
        ranges[32] = 0.7  # -40 degrees: inside
        assert front_min_range(make_scan(ranges)) == 0.7


class TestDeviceStatus:
    def test_proximity_threshold(self, stack):
        safe, reason = stack.controller.device_status(idle_state(), 0.20)
        assert (safe, reason) == (False, "OBSTACLE_PROXIMITY")

    def test_overload_window(self, stack):
        stack.controller.overload_ticks = PARAMS.overload_window
        safe, reason = stack.controller.device_status(idle_state(), 2.0)
        assert (safe, reason) == (False, "OVERLOAD")

    def test_healthy(self, stack):
        stack.controller.overload_ticks = 10
        safe, reason = stack.controller.device_status(
            idle_state(load=0.1), 2.0)
        assert (safe, reason) == (True, "OK")

    def test_collision_latches_unsafe(self, stack):
        safe, reason = stack.controller.device_status(
            idle_state(collided=True), 5.0)
        assert (safe, reason) == (False, "COLLIDED")

    def test_overload_accumulates_over_ticks(self):
        stack = make_stack()
        for i in range(PARAMS.overload_window):
            stack.device.state = replace(stack.device.state, load=0.9)
            stack.controller.tick(i)
        statuses = [e.payload for e in stack.recorder.events
                    if e.layer == "INSTINCT" and e.kind == "status"]
        assert all(s["safe"] for s in statuses[:-1])
        assert not statuses[-1]["safe"]
        assert statuses[-1]["reason"] == "OVERLOAD"


class TestGovernor:
    def test_linear_scale(self, stack):
        assert stack.controller.governor_scale(0.375) == pytest.approx(0.5)

    def test_no_override_beyond_slow_band(self, stack):
        assert stack.controller.governor_scale(0.5) == 1.0
        assert stack.controller.governor_scale(3.0) == 1.0

    def test_scales_executing_wheels(self):
        # obstacle 0.375 m ahead: command wheels halve
        world = WorldModel(bounds=BOUNDS, circles=(Circle(0.575, 0.0, 0.2),))
        stack = make_stack(world=world)
        cmd = HighCommand(1, HighKind.MOVE_TO, 0, ((-2.0, 0.0),))
        stack.command.transmit(cmd, 0)
        stack.controller.tick(0)
        execs = [e for e in stack.recorder.events if e.kind == "exec_wheels"]
        govs = [e for e in stack.recorder.events if e.kind == "governor"]
        assert len(govs) == 1
        assert govs[0].payload["scale"] == pytest.approx(0.5, abs=0.02)
        # target is behind: pure rotation command, scaled by the governor
        assert len(execs) == 1


class TestRoaming:
    def test_seeded_replay_identical(self):
        def arcs(seed):
            params = InstinctParams(roaming=True)
            stack = make_stack(params=params, roam_seed=seed)
            out = []
            for i in range(50):
                stack.device.step(PHYSICS_DT)
                stack.controller.tick(i)
            events = stack.recorder.events
            approved = {e.payload["low_id"]: e.payload["safe"] for e in events
                        if e.kind == "verdict"
                        and e.payload["parent_id"] == "SURVIVAL"}
            execs = [e for e in events if e.kind == "exec_wheels"]
            # every arc is vetted, and exactly the approved ones execute
            assert [e.payload["low_id"] for e in execs] == \
                [low_id for low_id, safe in approved.items() if safe]
            assert all(e.payload["parent_id"] == "SURVIVAL" for e in execs)
            for e in execs:
                out.append((e.tick, e.payload["v_left"],
                            e.payload["v_right"]))
            return out

        first = arcs(123)
        assert first and first == arcs(123)
        assert first != arcs(321)

    def test_roam_stops_once_a_command_is_active(self):
        # survival runs before command intake, so the arrival tick may still
        # roam; from the next tick the active command owns the wheels
        params = InstinctParams(roaming=True)
        stack = make_stack(params=params)
        stack.command.transmit(
            HighCommand(1, HighKind.MOVE_TO, 0, ((3.0, 0.0),)), 0)
        stack.controller.tick(0)
        stack.controller.tick(1)
        roams = [e for e in stack.recorder.events
                 if e.kind == "verdict" and e.tick == 1
                 and e.payload["parent_id"] == "SURVIVAL"]
        assert not roams
        execs = [e for e in stack.recorder.events
                 if e.kind == "exec_wheels" and e.tick == 1]
        assert len(execs) == 1 and execs[0].payload["parent_id"] == 1

    @staticmethod
    def _roam(occupied, seed):
        """(v, omega) of ``roam_intent`` for a summary whose sectors in
        ``occupied`` (sector -> range) hit and the rest read max_range."""
        sector_min = tuple(occupied.get(k, 5.0) for k in range(8))
        summary = ScanSummary(sector_min, 5.0, 0.0, min(sector_min),
                              Pose2D(0.0, 0.0, 0.0), 0.0, Mode.NORMAL, 0)
        vl, vr = roam_intent(summary, random.Random(seed), ROBOT, PARAMS)
        assert abs(vl) <= ROBOT.v_wheel_max and abs(vr) <= ROBOT.v_wheel_max
        return 0.5 * (vl + vr), (vr - vl) / ROBOT.axle

    def test_roam_intent_turns_away_from_the_nearest_return(self):
        tol = 1e-12
        for seed in range(200):
            # an obstacle behind: drive on ahead, near the heading
            v, omega = self._roam({4: 1.0}, seed)
            assert 0.2 - tol <= v <= 0.4 + tol
            assert abs(omega) <= 0.5 + tol
            # an obstacle ahead: the clear side is behind, so turn at the
            # clamp and creep at a quarter of the speed
            v, omega = self._roam({0: 1.0}, seed)
            assert omega == pytest.approx(PARAMS.omega_max, abs=tol)
            assert 0.05 - tol <= v <= 0.1 + tol
            # nothing seen: a free arc at 0.6 of the wheel limit
            v, omega = self._roam({}, seed)
            assert v == pytest.approx(0.3, abs=tol)
            assert abs(omega) <= 0.8 + tol
            # the nearest occupied sector wins
            assert (self._roam({0: 2.0, 4: 1.0}, seed)
                    == self._roam({4: 1.0}, seed))


class TestSafeMode:
    def make_unsafe_stack(self):
        # wall dead ahead at 0.2 m: front min below d_stop
        world = WorldModel(bounds=BOUNDS, circles=(Circle(0.4, 0.0, 0.2),))
        return make_stack(world=world)

    def test_unsafe_tick_executes_nothing_and_reports(self):
        stack = self.make_unsafe_stack()
        stack.command.transmit(
            HighCommand(1, HighKind.MOVE_TO, 0, ((3.0, 0.0),)), 0)
        stack.controller.tick(0)
        events = stack.recorder.events
        assert not [e for e in events if e.kind.startswith("exec_")]
        fb = [e for e in events if e.kind == "feedback"]
        assert any(e.payload["status"] == "SAFE_MODE" for e in fb)
        assert stack.controller.mode is Mode.SAFE
        # data message still goes out on the unsafe tick
        assert stack.data.poll(0)

    def test_entry_is_idempotent(self):
        stack = self.make_unsafe_stack()
        stack.controller.tick(0)
        mode_events = [e for e in stack.recorder.events
                       if e.kind == "safe_mode_entered"]
        stack.controller.tick(1)
        assert [e for e in stack.recorder.events
                if e.kind == "safe_mode_entered"] == mode_events
        assert stack.controller.mode is Mode.SAFE

    def test_pending_commands_each_get_terminal_feedback(self):
        stack = self.make_unsafe_stack()
        for cid in (1, 2, 3):
            stack.controller.queue.append(
                HighCommand(cid, HighKind.MOVE_TO, 0, ((1.0, 1.0),)))
        stack.controller.tick(0)
        safe_mode_fb = [e.payload["command_id"]
                        for e in stack.recorder.events
                        if e.kind == "feedback"
                        and e.payload["status"] == "SAFE_MODE"
                        and e.payload["command_id"] is not None]
        assert sorted(safe_mode_fb) == [1, 2, 3]

    def test_hold_then_exit_at_tick_201(self):
        stack = self.make_unsafe_stack()
        stack.controller.tick(0)
        assert stack.controller.mode is Mode.SAFE
        # teleport clear of the obstacle: status is safe from tick 1 on
        stack.device.state = replace(stack.device.state,
                                     pose=Pose2D(-3.0, -3.0, 0.0))
        for t in range(1, 200):
            stack.controller.tick(t)
            assert stack.controller.mode is Mode.SAFE, f"tick {t}"
        stack.controller.tick(200)
        assert stack.controller.mode is Mode.NORMAL
        exits = [e for e in stack.recorder.events
                 if e.kind == "safe_mode_exited"]
        assert [e.tick for e in exits] == [200]
        # commands are handled again from tick 201
        stack.command.transmit(
            HighCommand(9, HighKind.MOVE_TO, 201, ((0.0, -3.0),)), 201)
        stack.controller.tick(201)
        assert [e for e in stack.recorder.events if e.kind == "exec_wheels"]

    def test_commands_during_hold_are_terminated(self):
        stack = self.make_unsafe_stack()
        stack.controller.tick(0)
        stack.device.state = replace(stack.device.state,
                                     pose=Pose2D(-3.0, -3.0, 0.0))
        stack.command.transmit(
            HighCommand(5, HighKind.MOVE_TO, 1, ((0.0, 0.0),)), 1)
        stack.controller.tick(1)
        fb = [e.payload for e in stack.recorder.events
              if e.kind == "feedback" and e.payload["command_id"] == 5]
        assert [f["status"] for f in fb] == ["SAFE_MODE"]

    def test_malformed_command_during_hold_is_refused(self):
        stack = self.make_unsafe_stack()
        stack.controller.tick(0)
        stack.device.state = replace(stack.device.state,
                                     pose=Pose2D(-3.0, -3.0, 0.0))
        stack.command.transmit(
            HighCommand(5, HighKind.MOVE_TO, 1, ((math.nan, 0.0),)), 1)
        stack.controller.tick(1)
        assert stack.controller.mode is Mode.SAFE
        events = [e for e in stack.recorder.events if e.tick == 1]
        assert [e.payload["id"] for e in events
                if e.kind == "command_malformed"] == [5]
        assert not [e for e in events if e.kind == "command_received"]
        fb = [e.payload for e in events
              if e.kind == "feedback" and e.payload["command_id"] == 5]
        assert [(f["status"], f["reason"]) for f in fb] == \
            [("REFUSED", "MALFORMED")]


class TestConvert:
    def test_straight_clamped(self):
        intent, done, _ = convert(
            HighCommand(1, HighKind.MOVE_TO, 0, ((1.0, 0.0),)),
            Pose2D(0, 0, 0), ROBOT, PARAMS)
        assert not done
        kind, vl, vr = intent
        assert kind is LowKind.SET_WHEELS
        assert (vl, vr) == pytest.approx((0.5, 0.5))

    def test_target_behind_rotates_in_place(self):
        intent, done, _ = convert(
            HighCommand(1, HighKind.MOVE_TO, 0, ((-1.0, 0.0),)),
            Pose2D(0, 0, 0), ROBOT, PARAMS)
        kind, vl, vr = intent
        assert not done and kind is LowKind.SET_WHEELS
        assert vl == pytest.approx(-vr)
        assert abs((vr - vl) / ROBOT.axle) == pytest.approx(PARAMS.omega_max)

    def test_position_deadband_completes(self):
        intent, done, _ = convert(
            HighCommand(1, HighKind.MOVE_TO, 0, ((0.04, 0.0),)),
            Pose2D(0, 0, 0), ROBOT, PARAMS)
        assert intent is None and done

    def test_rotate_to(self):
        intent, done, _ = convert(
            HighCommand(1, HighKind.ROTATE_TO, 0, theta=1.0),
            Pose2D(0, 0, 0), ROBOT, PARAMS)
        kind, vl, vr = intent
        assert kind is LowKind.SET_WHEELS
        assert not done and vl == pytest.approx(-vr) and vr > 0
        intent, done, _ = convert(
            HighCommand(1, HighKind.ROTATE_TO, 0, theta=0.03),
            Pose2D(0, 0, 0), ROBOT, PARAMS)
        assert intent is None and done

    def test_rotate_to_scales_both_wheels_to_the_limit(self):
        # omega_max * axle / 2 = 0.75 m/s exceeds the 0.5 m/s wheel limit
        params = InstinctParams(omega_max=5.0)
        intent, done, _ = convert(
            HighCommand(1, HighKind.ROTATE_TO, 0, theta=3.0),
            Pose2D(0, 0, 0), ROBOT, params)
        kind, vl, vr = intent
        assert kind is LowKind.SET_WHEELS and not done
        assert vl == -vr and vr > 0
        assert abs(vr - ROBOT.v_wheel_max) <= 1e-12
        belief = ObstacleBelief(np.empty((0, 2)), 0, (0.0, 0.0))
        v = safety_check(LowCommand(1, 1, kind, vl, vr), Pose2D(0, 0, 0),
                         belief, BOUNDS, ROBOT, params, 0, PHYSICS_DT)
        assert v.safe and v.reason is VerdictReason.OK

    def test_stop(self):
        intent, done, _ = convert(HighCommand(1, HighKind.STOP, 0),
                                  Pose2D(0, 0, 0), ROBOT, PARAMS)
        assert intent == (LowKind.STOP_ALL, 0.0, 0.0) and done

    def test_follow_path_advances_waypoints(self):
        cmd = HighCommand(1, HighKind.FOLLOW_PATH, 0,
                          ((0.02, 0.0), (1.0, 0.0)))
        intent, done, idx = convert(cmd, Pose2D(0, 0, 0), ROBOT, PARAMS)
        assert idx == 1 and not done
        assert intent[0] is LowKind.SET_WHEELS
        intent, done, idx = convert(cmd, Pose2D(0.98, 0.0, 0.0), ROBOT,
                                    PARAMS, waypoint_idx=idx)
        assert done and intent is None

    def test_closed_loop_reaches_goal_under_60s(self):
        # repeated convert + physics from (0,0,0) to (3,2) in an empty world
        world = WorldModel(bounds=Rect(-5, -5, 5, 5))
        cmd = HighCommand(1, HighKind.MOVE_TO, 0, ((3.0, 2.0),))
        state = RobotState(pose=Pose2D(0, 0, 0))
        for tick in range(6000):
            intent, done, _ = convert(cmd, state.pose, ROBOT, PARAMS)
            if done:
                break
            _, vl, vr = intent
            state, _ = step_world(state, world, vl, vr, PHYSICS_DT, ROBOT)
        assert done, "goal not reached within 60 simulated seconds"
        assert math.hypot(state.pose.x - 3.0, state.pose.y - 2.0) <= \
            PARAMS.eps_pos + 0.01


class TestSafetyCheck:
    def belief_at(self, *points, tick=0):
        return ObstacleBelief(points=np.array(points, dtype=float).reshape(-1, 2),
                              built_tick=tick)

    def test_stop_always_safe(self):
        v = safety_check(LowCommand(1, 2, LowKind.STOP_ALL), Pose2D(0, 0, 0),
                         self.belief_at([0.3, 0.0]), BOUNDS, ROBOT, PARAMS,
                         0, PHYSICS_DT)
        assert v.safe and v.reason is VerdictReason.OK
        assert v.predicted_min_clearance >= PARAMS.d_min

    def test_head_on_unsafe_and_oracle_agrees(self):
        # frozen case: point 0.30 m dead ahead, full speed for 2 s
        low = LowCommand(1, 2, LowKind.SET_WHEELS, 0.5, 0.5,
                         duration_ticks=200)
        belief = self.belief_at([0.30, 0.0])
        v = safety_check(low, Pose2D(0, 0, 0), belief, BOUNDS, ROBOT, PARAMS,
                         0, PHYSICS_DT)
        assert not v.safe
        assert v.reason is VerdictReason.OBSTACLE_PREDICTED
        assert v.predicted_min_clearance < PARAMS.d_min
        case = ScenarioCase(seed=0, world=WorldModel(bounds=BOUNDS),
                            start=Pose2D(0, 0, 0), command=low, belief=belief)
        o = oracle_safety(case)
        assert not o.safe and o.predicted_min_clearance < PARAMS.d_min
        assert v.predicted_min_clearance == pytest.approx(
            o.predicted_min_clearance, abs=0.02)

    def test_empty_belief_within_bounds_safe(self):
        v = safety_check(LowCommand(1, 2, LowKind.SET_WHEELS, 0.2, 0.2, 10),
                         Pose2D(0, 0, 0),
                         ObstacleBelief(np.zeros((0, 2)), 0), BOUNDS, ROBOT,
                         PARAMS, 0, PHYSICS_DT)
        assert v.safe and v.reason is VerdictReason.OK

    def test_stale_belief_conservatively_unsafe(self):
        low = LowCommand(1, 2, LowKind.SET_WHEELS, 0.1, 0.1, 1)
        v = safety_check(low, Pose2D(0, 0, 0), self.belief_at([3.0, 3.0]),
                         BOUNDS, ROBOT, PARAMS,
                         now=PARAMS.stale_limit + 1, physics_dt=PHYSICS_DT)
        assert not v.safe and v.reason is VerdictReason.LIMIT_EXCEEDED

    def test_belief_aged_exactly_stale_limit_still_approves(self):
        low = LowCommand(1, 2, LowKind.SET_WHEELS, 0.1, 0.1, 1)
        v = safety_check(low, Pose2D(0, 0, 0), self.belief_at([3.0, 3.0]),
                         BOUNDS, ROBOT, PARAMS,
                         now=PARAMS.stale_limit, physics_dt=PHYSICS_DT)
        assert v.safe and v.reason is VerdictReason.OK

    def test_clearance_exactly_d_min_approves(self):
        # dyadic values: the point lies exactly 0.5 m ahead, so the parked
        # body keeps exactly d_min; the hand-built belief has no origin, so
        # the travel bound declines and the full check decides
        robot = replace(ROBOT, radius=0.25)
        params = replace(PARAMS, d_min=0.25, d_stop=0.3)
        low = LowCommand(1, 2, LowKind.SET_WHEELS, 0.0, 0.0, 1)
        v = safety_check(low, Pose2D(0, 0, 0), self.belief_at([0.5, 0.0]),
                         BOUNDS, robot, params, 0, PHYSICS_DT)
        assert v == SafetyVerdict(True, 0.25, VerdictReason.OK)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["left", "right", "both"])
    def test_non_finite_wheel_speed_refused(self, bad, side):
        vl = bad if side in ("left", "both") else 0.3
        vr = bad if side in ("right", "both") else 0.3
        v = safety_check(LowCommand(1, 2, LowKind.SET_WHEELS, vl, vr, 1),
                         Pose2D(0, 0, 0), self.belief_at([3.0, 3.0]),
                         BOUNDS, ROBOT, PARAMS, 0, PHYSICS_DT)
        assert v == SafetyVerdict(False, -math.inf,
                                  VerdictReason.LIMIT_EXCEEDED)

    def test_bounds_violation_detected(self):
        v = safety_check(LowCommand(1, 2, LowKind.SET_WHEELS, 0.5, 0.5, 200),
                         Pose2D(3.0, 0.0, 0.0),
                         ObstacleBelief(np.zeros((0, 2)), 0), BOUNDS, ROBOT,
                         PARAMS, 0, PHYSICS_DT)
        assert not v.safe and v.reason is VerdictReason.OUT_OF_BOUNDS

    def test_verdict_invariant_safe_iff_clearance(self):
        rng = random.Random(2)
        belief = self.belief_at([1.0, 0.4], [-0.8, 0.6])
        for _ in range(200):
            low = LowCommand(1, 2, LowKind.SET_WHEELS,
                             rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                             rng.randint(1, 100))
            v = safety_check(low, Pose2D(0, 0, 0), belief, BOUNDS, ROBOT,
                             PARAMS, 0, PHYSICS_DT)
            assert v.safe == (v.reason is VerdictReason.OK)
            assert v.safe == (v.predicted_min_clearance >= PARAMS.d_min)

    def test_trajectory_includes_braking_travel(self):
        # one-tick command still predicts the full stopping distance
        pts = predict_trajectory(Pose2D(0, 0, 0), 0.5, 0.5, PHYSICS_DT,
                                 ROBOT, PARAMS.dt_pred)
        reach = pts[:, 0].max()
        assert reach > 0.5 ** 2 / (2 * ROBOT.a_max)  # beyond ideal braking arc

    @pytest.mark.parametrize("v_left, v_right", [
        (math.inf, math.inf),   # omega is NaN and the horizon infinite
        (math.inf, 0.3),        # sin(inf)
        (math.nan, 0.3),
        (0.3, -math.inf),
    ])
    def test_trajectory_rejects_non_finite_wheel_speed(self, v_left,
                                                       v_right):
        with pytest.raises(ValueError, match="non-finite wheel speed"):
            predict_trajectory(Pose2D(0, 0, 0), v_left, v_right, PHYSICS_DT,
                               ROBOT, PARAMS.dt_pred)


class TestRefusal:
    def make_refusing_stack(self):
        # surface at 0.35 m: status safe (>= d_stop) but driving at it is not
        world = WorldModel(bounds=BOUNDS, circles=(Circle(0.85, 0.0, 0.5),))
        return make_stack(world=world)

    def test_refused_command_never_reaches_device(self):
        stack = self.make_refusing_stack()
        stack.command.transmit(
            HighCommand(1, HighKind.MOVE_TO, 0, ((2.5, 0.0),)), 0)
        stack.controller.tick(0)
        events = stack.recorder.events
        assert not [e for e in events if e.kind.startswith("exec_")]
        assert stack.device.cmd_v_left == 0.0
        assert stack.device.cmd_v_right == 0.0
        verdicts = [e for e in events if e.kind == "verdict"]
        assert len(verdicts) == 1
        assert verdicts[0].layer == "INSTINCT"
        assert verdicts[0].payload["parent_id"] == 1
        assert not verdicts[0].payload["safe"]

    def test_refusal_feedback_carries_verdict(self):
        stack = self.make_refusing_stack()
        stack.command.transmit(
            HighCommand(1, HighKind.MOVE_TO, 0, ((2.5, 0.0),)), 0)
        stack.controller.tick(0)
        fb = [f for f in stack.feedback.poll(0)
              if f.status is FeedbackStatus.REFUSED]
        assert len(fb) == 1
        assert fb[0].verdict is not None
        assert fb[0].verdict.predicted_min_clearance < PARAMS.d_min
        assert fb[0].reason == "OBSTACLE_PREDICTED"

    def test_malformed_command_refused(self, stack):
        bad = HighCommand(7, HighKind.MOVE_TO, 0, ((math.nan, 0.0),))
        stack.command.transmit(bad, 0)
        stack.controller.tick(0)
        fb = stack.feedback.poll(0)
        assert [f.status for f in fb] == [FeedbackStatus.REFUSED]
        assert fb[0].reason == "MALFORMED"
        assert fb[0].verdict is None  # no check vetted it

    def test_overlong_route_refused_at_intake(self, stack):
        route = ((1.0, 0.0),) * (MAX_ROUTE_POINTS + 1)
        stack.command.transmit(
            HighCommand(7, HighKind.FOLLOW_PATH, 0, route), 0)
        stack.controller.tick(0)
        fb = stack.feedback.poll(0)
        assert [(f.status, f.reason) for f in fb] == [
            (FeedbackStatus.REFUSED, "MALFORMED")]
        assert not stack.controller.queue


    def test_command_beyond_a_full_queue_refused(self, stack):
        for cid in range(1, MAX_QUEUED_COMMANDS + 2):
            stack.command.transmit(
                HighCommand(cid, HighKind.ROTATE_TO, 0, theta=3.0), 0)
        stack.controller.tick(0)
        answers = [(f.command_id, f.status, f.reason, f.verdict)
                   for f in stack.feedback.poll(0)
                   if f.status is not FeedbackStatus.EXECUTING]
        last = MAX_QUEUED_COMMANDS + 1
        assert answers == [
            (cid, FeedbackStatus.ACCEPTED, "QUEUED", None)
            for cid in range(1, last)
        ] + [(last, FeedbackStatus.REFUSED, "QUEUE_FULL", None)]
        assert stack.controller.active.cmd.id == 1
        assert [c.id for c in stack.controller.queue] == list(range(2, last))


class TestTickContract:
    def test_safe_tick_with_move_executes_once(self, stack):
        stack.command.transmit(
            HighCommand(1, HighKind.MOVE_TO, 0, ((3.0, 0.0),)), 0)
        stack.controller.tick(0)
        events = stack.recorder.events
        execs = [e for e in events if e.kind == "exec_wheels"]
        assert len(execs) == 1
        fb_status = [e.payload["status"] for e in events
                     if e.kind == "feedback"]
        assert "ACCEPTED" in fb_status and "EXECUTING" in fb_status

    def test_idle_tick_keeps_stop_and_sends_data(self, stack):
        stack.device.set_wheel_command(0.3, 0.3, 1)  # residue of a 1-step hold
        stack.controller.tick(0)
        assert len(stack.data.poll(0)) == 1
        assert not [e for e in stack.recorder.events
                    if e.kind == "exec_wheels"]
        # the idle tick sends nothing: the residue drives one step from
        # rest, then the wheels brake back to a stop
        dv = ROBOT.a_max * PHYSICS_DT
        state = stack.device.step(PHYSICS_DT)
        assert (state.v_left, state.v_right) == (dv, dv)
        assert (stack.device.cmd_v_left, stack.device.cmd_v_right) == (0, 0)
        state = stack.device.step(PHYSICS_DT)
        assert (state.v_left, state.v_right) == (0.0, 0.0)

    def test_fifo_one_active_command_at_a_time(self, stack):
        stack.command.transmit(
            HighCommand(1, HighKind.ROTATE_TO, 0, theta=3.0), 0)
        stack.command.transmit(
            HighCommand(2, HighKind.ROTATE_TO, 0, theta=-3.0), 0)
        stack.controller.tick(0)
        assert stack.controller.active.cmd.id == 1
        assert [c.id for c in stack.controller.queue] == [2]

    def test_agent_independence_runs_standalone(self):
        params = InstinctParams(roaming=True)
        world = WorldModel(bounds=BOUNDS, circles=(Circle(1.5, 1.0, 0.4),))
        stack = make_stack(world=world, params=params)
        for t in range(500):
            stack.device.step(PHYSICS_DT)
            stack.controller.tick(t)
        statuses = [e for e in stack.recorder.events
                    if e.layer == "INSTINCT" and e.kind == "status"]
        assert len(statuses) == 500
        assert not stack.device.state.collided


class TestObstacleBelief:
    def test_endpoints_only_for_hits(self):
        world = WorldModel(bounds=Rect(-10, -10, 10, 10),
                           circles=(Circle(2.0, 0.0, 0.5),))
        sweep = scan(world, Pose2D(0, 0, 0), 36, 5.0)
        belief = ObstacleBelief.from_scan(sweep, 3)
        assert belief.built_tick == 3
        n_hits = int(np.sum(sweep.ranges < 5.0))
        assert belief.points.shape == (n_hits, 2)
        assert np.all(np.isfinite(belief.points))
        # the dead-ahead endpoint sits on the circle surface
        front = belief.points[np.argmin(np.abs(belief.points[:, 1]))]
        assert front[0] == pytest.approx(1.5)

    def test_belief_lands_where_its_sweep_was_cast(self):
        # a device whose sweeps come from 0.5 m ahead of its pose, as an old
        # sweep would after the robot moved: the belief sits at the sweep's
        # origin, so the travel bound, which needs a belief built at the
        # pose, gives way to the full check
        world = WorldModel(bounds=Rect(-4, -4, 4, 4),
                           circles=(Circle(3.0, 0.0, 0.5),))
        stack = make_stack(world=world)
        sweep = scan(world, Pose2D(0.5, 0.0, 0.0), 36, 5.0)
        stack.device.acquire_scan = lambda: sweep
        stack.command.transmit(
            HighCommand(1, HighKind.MOVE_TO, 0, ((-2.0, 0.0),)), 0)
        for now in range(5):
            stack.controller.tick(now)
            stack.device.step(PHYSICS_DT)
            belief = stack.controller.belief
            assert belief.origin == (0.5, 0.0)
            assert belief.built_tick == now
            assert np.array_equal(belief.points,
                                  ObstacleBelief.from_scan(sweep, now).points)
        motions = [e.payload for e in stack.recorder.events
                   if e.kind == "verdict" and e.payload["parent_id"] == 1]
        assert motions and all(p["safe"] for p in motions)
        assert not any("bound" in p for p in motions)

    def test_empty_world_empty_belief(self):
        world = WorldModel(bounds=Rect(-10, -10, 10, 10))
        sweep = scan(world, Pose2D(0, 0, 0), 36, 5.0)
        belief = ObstacleBelief.from_scan(sweep, 0)
        assert belief.points.shape == (0, 2)
