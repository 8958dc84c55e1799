"""The travel-bound approval of the safety check against the full check.

A motion approved on the fast path ("bound": "disc") must also be approved
by ``predict_trajectory`` + ``_trajectory_clearances``, whose clearance is at
least the reported bound; every other command must keep the full path's
verdict. ``docs/travel_bound.md`` derives the bound and its rounding margin.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instinctsim import instinct
from instinctsim.config import InstinctParams, PHYSICS_DT, RobotParams
from instinctsim.instinct import (
    ObstacleBelief,
    _disc_verdict,
    _trajectory_clearances,
    predict_trajectory,
    safety_check,
    travel_bound,
)
from instinctsim.messages import LowCommand, LowKind, VerdictReason
from instinctsim.oracle import gen_scenario
from instinctsim.world import LidarScan, Pose2D, Rect

ROBOT = RobotParams()
PARAMS = InstinctParams()
V_MAX = ROBOT.v_wheel_max
MAX_RANGE = 5.0
_WHEEL = st.floats(-V_MAX, V_MAX)


@st.composite
def wheel_pairs(draw):
    """Arcs, straight runs, turns in place, a standstill, and yaw rates a
    few 1e-9 from the straight-line threshold (the largest arc radii)."""
    kind = draw(st.sampled_from(["any", "turn", "straight", "threshold",
                                 "zero"]))
    if kind == "zero":
        return 0.0, 0.0
    vl = draw(_WHEEL)
    if kind == "turn":
        return vl, -vl
    if kind == "straight":
        return vl, vl
    if kind == "threshold":
        vl = min(max(vl, -0.99 * V_MAX), 0.99 * V_MAX)
        return vl, vl + draw(st.floats(-3e-9, 3e-9)) * ROBOT.axle
    return vl, draw(_WHEEL)


@st.composite
def near_threshold_cases(draw):
    """A pose (near the origin or near 1e6 m), a command, a belief built
    from a scan taken at the pose (the only belief the fast path reads) and
    bounds whose binding margin sits a drawn slack above the fast path's
    floor d_min + radius + L, so that approvals land near the boundary."""
    base = draw(st.sampled_from([0.0, 1e6, -1e6]))
    x = base + draw(st.floats(-3.0, 3.0))
    y = draw(st.sampled_from([0.0, base])) + draw(st.floats(-3.0, 3.0))
    theta = draw(st.floats(-math.pi, math.pi))
    vl, vr = draw(wheel_pairs())
    ticks = draw(st.integers(1, 200))
    length = travel_bound(vl, vr, ticks * PHYSICS_DT, ROBOT, PARAMS.dt_pred)
    floor = PARAMS.d_min + ROBOT.radius + length
    slack = draw(st.one_of(st.floats(-1e-3, 1e-3), st.floats(0.0, 0.1)))
    near_point = draw(st.booleans())
    reach = floor + slack
    walls = [reach + draw(st.floats(0.0, 2.0)) for _ in range(4)]
    if not near_point:
        walls[draw(st.integers(0, 3))] = reach
    bounds = Rect(x - walls[0], y - walls[1], x + walls[2], y + walls[3])
    low = LowCommand(1, 2, LowKind.SET_WHEELS, vl, vr, ticks)
    n = draw(st.integers(4, 40))
    ranges = [draw(st.one_of(st.just(MAX_RANGE), st.floats(reach, MAX_RANGE)))
              for _ in range(n)]
    if near_point:  # a beam dead ahead, where a straight run heads
        ranges[0 if draw(st.booleans()) else draw(
            st.integers(0, n - 1))] = reach
    sweep = LidarScan(np.array(ranges), Pose2D(x, y, theta), MAX_RANGE)
    belief = ObstacleBelief.from_scan(sweep, 0)
    return Pose2D(x, y, theta), low, belief, bounds


def full_clearance(pose, low, points, bounds):
    samples = predict_trajectory(pose, low.v_left, low.v_right,
                                 low.duration_ticks * PHYSICS_DT, ROBOT,
                                 PARAMS.dt_pred)
    return min(_trajectory_clearances(samples, points, bounds, ROBOT.radius))


class TestDiscApproval:
    @settings(max_examples=1500, deadline=None)
    @given(case=near_threshold_cases())
    def test_fast_approval_is_a_full_approval(self, case):
        pose, low, belief, bounds = case
        v = safety_check(low, pose, belief, bounds, ROBOT, PARAMS, 0,
                         PHYSICS_DT)
        if v.bound != "disc":
            return
        assert v.safe and v.reason is VerdictReason.OK
        assert v.predicted_min_clearance >= PARAMS.d_min
        assert full_clearance(pose, low, belief.points, bounds) >= \
            v.predicted_min_clearance

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "y", "theta"])
    @pytest.mark.parametrize("wheels", [(0.0, 0.0), (0.2, -0.2), (0.3, 0.3),
                                        (0.1, 0.4)])
    @pytest.mark.parametrize("belief", ["none", "points", "scan"])
    def test_non_finite_pose_takes_the_full_path(self, bad, field, wheels,
                                                 belief):
        pose = Pose2D(**{"x": 0.0, "y": 0.0, "theta": 0.0, field: bad})
        points = np.array([(3.0, 0.5), (-2.5, 1.0), (0.0, -3.0)])
        if belief == "none":
            points = points[:0]
        # "scan": built at this very pose, so the check reads its reach
        origin = (pose.x, pose.y) if belief == "scan" else None
        assert _disc_verdict(pose, *wheels, PHYSICS_DT,
                             ObstacleBelief(points, 0, origin, 3.0),
                             Rect(-4.0, -4.0, 4.0, 4.0), ROBOT,
                             PARAMS) is None

    @pytest.mark.parametrize("origin", [None, (0.0, 0.0)])
    def test_nan_belief_takes_the_full_path(self, origin):
        points = np.array([(3.0, 0.0), (math.nan, 1.0)])
        belief = ObstacleBelief(points, 0, origin, math.nan)
        assert _disc_verdict(Pose2D(0.0, 0.0, 0.0), 0.1, 0.1, PHYSICS_DT,
                             belief, Rect(-4.0, -4.0, 4.0, 4.0), ROBOT,
                             PARAMS) is None

    def test_far_motion_reports_its_bound(self):
        low = LowCommand(1, 2, LowKind.SET_WHEELS, 0.4, 0.5, 1)
        v = safety_check(low, Pose2D(0.0, 0.0, 0.3),
                         ObstacleBelief(np.array([(3.0, 0.0)]), 0,
                                        (0.0, 0.0), 3.0),
                         Rect(-4.0, -4.0, 4.0, 4.0), ROBOT, PARAMS, 0,
                         PHYSICS_DT)
        length = travel_bound(0.4, 0.5, PHYSICS_DT, ROBOT, PARAMS.dt_pred)
        assert v.bound == "disc"
        assert v.to_payload()["bound"] == "disc"
        assert v.predicted_min_clearance == pytest.approx(
            3.0 - ROBOT.radius - length, abs=1e-9)
        assert v.predicted_min_clearance < 3.0 - ROBOT.radius - length

    def test_bound_exactly_d_min_approves(self):
        # one hit 0.6 m dead ahead of a 36-beam sweep; with d_min raised to
        # the certified bound of a slow step, the same step is still
        # approved on the fast path
        ranges = np.full(36, MAX_RANGE)
        ranges[0] = 0.6
        pose = Pose2D(0.0, 0.0, 0.0)
        belief = ObstacleBelief.from_scan(
            LidarScan(ranges, pose, MAX_RANGE), 0)
        low = LowCommand(1, 2, LowKind.SET_WHEELS, 0.1, 0.1, 1)
        bounds = Rect(-4.0, -4.0, 4.0, 4.0)
        first = safety_check(low, pose, belief, bounds, ROBOT, PARAMS, 0,
                             PHYSICS_DT)
        assert first.bound == "disc"
        params = replace(PARAMS, d_min=first.predicted_min_clearance)
        v = safety_check(low, pose, belief, bounds, ROBOT, params, 0,
                         PHYSICS_DT)
        assert v.safe and v.bound == "disc"
        assert v.predicted_min_clearance == params.d_min

    @pytest.mark.parametrize("origin", [None, (1.0, 0.0), (0.0, -1.0)])
    def test_belief_built_elsewhere_takes_the_full_path(self, origin):
        # far from everything, so only where the belief was built matters
        pose = Pose2D(0.0, 0.0, 0.3)
        low = LowCommand(1, 2, LowKind.SET_WHEELS, 0.4, 0.5, 1)
        points = np.array([(3.0, 0.0), (-2.5, 1.0)])
        bounds = Rect(-4.0, -4.0, 4.0, 4.0)
        v = safety_check(low, pose, ObstacleBelief(points, 0, origin, 2.0),
                         bounds, ROBOT, PARAMS, 0, PHYSICS_DT)
        assert v.bound is None
        assert v.safe and v.reason is VerdictReason.OK
        assert v.predicted_min_clearance == full_clearance(pose, low, points,
                                                           bounds)


class TestTravelBound:
    @pytest.mark.parametrize("a_max", [0.5, 2.0])
    @settings(max_examples=300, deadline=None)
    @given(wheels=wheel_pairs(), ticks=st.integers(1, 200),
           theta=st.floats(-math.pi, math.pi))
    def test_samples_lie_within_the_bound(self, a_max, wheels, ticks, theta):
        """Every sample of a robot other than the default lies within L."""
        robot = replace(ROBOT, a_max=a_max)
        hold_s = ticks * PHYSICS_DT
        samples = predict_trajectory(Pose2D(0.0, 0.0, theta), *wheels,
                                     hold_s, robot, PARAMS.dt_pred)
        length = travel_bound(*wheels, hold_s, robot, PARAMS.dt_pred)
        assert np.hypot(samples[:, 0], samples[:, 1]).max() <= length + 1e-9

    def test_slow_braking_runs_far(self):
        # a full-speed straight step braking at 0.5 m/s^2 runs about 0.26 m
        robot = replace(ROBOT, a_max=0.5)
        samples = predict_trajectory(Pose2D(0.0, 0.0, 0.0), 0.5, 0.5,
                                     PHYSICS_DT, robot, PARAMS.dt_pred)
        reach = np.hypot(samples[:, 0], samples[:, 1]).max()
        assert 0.25 < reach <= travel_bound(0.5, 0.5, PHYSICS_DT, robot,
                                            PARAMS.dt_pred)


def test_generated_cases_keep_the_full_verdicts(monkeypatch):
    """gen_scenario seeds 0-1999: the same safe flag and reason as with the
    fast path switched off."""
    cases = [gen_scenario(seed) for seed in range(2000)]

    def check(case):
        return safety_check(case.command, case.start, case.belief,
                            case.world.bounds, ROBOT, PARAMS, 0, PHYSICS_DT)

    fast = [check(c) for c in cases]
    monkeypatch.setattr(instinct, "_disc_verdict", lambda *args: None)
    full = [check(c) for c in cases]
    assert [(v.safe, v.reason) for v in fast] == \
        [(v.safe, v.reason) for v in full]
    disc = [i for i, v in enumerate(fast) if v.bound == "disc"]
    assert len(disc) > 1000  # the fast path is exercised, not bypassed
    assert all(fast[i].predicted_min_clearance
               <= full[i].predicted_min_clearance for i in disc)
