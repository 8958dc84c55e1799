"""World-model tests: kinematics, raycasting, clearance, physics stepping.

Derived expectations were computed with the independent oracles defined in
this file (fine-step Euler integration, fixed-step ray marching) and frozen
into the asserts.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instinctsim.config import RobotParams
from instinctsim.world import (
    Circle,
    DeviceSim,
    LidarParams,
    Pose2D,
    Rect,
    RobotState,
    WorldModel,
    beam_distances,
    clearance,
    scan,
    step_kinematics,
    step_world,
    wrap_angle,
)

BIG = Rect(-50.0, -50.0, 50.0, 50.0)


def euler_integrate(pose, v_left, v_right, axle, dt, substeps):
    """Independent fine-step oracle for the differential-drive pose update."""
    x, y, th = pose.x, pose.y, pose.theta
    v = 0.5 * (v_left + v_right)
    omega = (v_right - v_left) / axle
    h = dt / substeps
    for _ in range(substeps):
        x += v * math.cos(th) * h
        y += v * math.sin(th) * h
        th += omega * h
    return x, y, th


def march_ray(world, origin, angle, max_range, step=1e-4):
    """Fixed-step ray-marching oracle against the world's clearance field."""
    t = 0.0
    dx, dy = math.cos(angle), math.sin(angle)
    while t <= max_range:
        if clearance(world, origin[0] + t * dx, origin[1] + t * dy) <= 0.0:
            return t, True
        t += step
    return max_range, False


def sphere_trace(world, origin, angle, max_range, floor=1e-4):
    """Ray marching with clearance-sized steps (same limit, far fewer steps)."""
    t = 0.0
    dx, dy = math.cos(angle), math.sin(angle)
    while t <= max_range:
        c = clearance(world, origin[0] + t * dx, origin[1] + t * dy)
        if c <= 0.0:
            return t, True
        t += max(c, floor)
    return max_range, False


class TestWrapAngle:
    def test_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)

    @given(st.floats(-100.0, 100.0))
    def test_range(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi


class TestStepKinematics:
    def test_straight_line(self):
        p = step_kinematics(Pose2D(0, 0, 0), 1.0, 1.0, 0.3, 0.1)
        assert (p.x, p.y, p.theta) == pytest.approx((0.1, 0.0, 0.0))

    def test_pure_rotation(self):
        p = step_kinematics(Pose2D(0, 0, 0), -0.25, 0.25, 0.5, 0.1)
        assert (p.x, p.y, p.theta) == pytest.approx((0.0, 0.0, 0.1))

    def test_straight_rotated_frame(self):
        p = step_kinematics(Pose2D(0, 0, math.pi / 2), 1.0, 1.0, 0.3, 0.1)
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(0.1)
        assert p.theta == pytest.approx(math.pi / 2)

    def test_arc_against_fine_euler(self):
        # 5000-substep Euler oracle gives (0.147238439, 0.024764466, 0.333333333)
        p = step_kinematics(Pose2D(0, 0, 0), 0.2, 0.4, 0.3, 0.5)
        assert p.x == pytest.approx(0.147238439, abs=1e-4)
        assert p.y == pytest.approx(0.024764466, abs=1e-4)
        assert p.theta == pytest.approx(0.333333333, abs=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-5, 5),
        y=st.floats(-5, 5),
        th=st.floats(-math.pi + 1e-9, math.pi),
        vl=st.floats(-0.5, 0.5),
        vr=st.floats(-0.5, 0.5),
        dt=st.floats(1e-4, 0.01),
    )
    def test_agrees_with_hundredfold_euler(self, x, y, th, vl, vr, dt):
        pose = Pose2D(x, y, th)
        p = step_kinematics(pose, vl, vr, 0.3, dt)
        ex, ey, eth = euler_integrate(pose, vl, vr, 0.3, dt, 100)
        assert p.x == pytest.approx(ex, abs=1e-4)
        assert p.y == pytest.approx(ey, abs=1e-4)
        assert abs(wrap_angle(p.theta - eth)) < 1e-4

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            step_kinematics(Pose2D(0, 0, 0), 0.1, 0.1, 0.3, 0.0)


class TestRaycast:
    def test_collinear_circle(self):
        w = WorldModel(bounds=BIG, circles=(Circle(2.0, 0.0, 0.5),))
        assert beam_distances(w, 0, 0, np.array([0.0]))[0] == 1.5

    def test_no_hit_cap(self):
        # uncapped: the ray runs on to the bounds edge; the scan caps it
        # (TestScan.test_empty_world_all_capped)
        w = WorldModel(bounds=BIG)
        assert beam_distances(w, 0, 0, np.array([0.0]))[0] == 50.0

    def test_axis_aligned_rect_face(self):
        w = WorldModel(bounds=BIG, rects=(Rect(1.0, -1.0, 2.0, 1.0),))
        assert beam_distances(w, 0, 0, np.array([0.0]))[0] == 1.0

    def test_oblique_circle_against_marching(self):
        # 1e-4-step marching oracle gives 1.57470 for this geometry
        w = WorldModel(bounds=BIG, circles=(Circle(2.0, 0.4, 0.5),))
        rng_val = beam_distances(w, 0, 0, np.array([0.3]))[0]
        assert rng_val == pytest.approx(1.57470, abs=1e-3)
        assert rng_val == pytest.approx(march_ray(w, (0, 0), 0.3, 5.0)[0], abs=1e-3)

    def test_bounds_edge_is_a_surface(self):
        w = WorldModel(bounds=Rect(-2.0, -2.0, 2.0, 2.0))
        assert beam_distances(w, 0, 0, np.array([0.0]))[0] == 2.0

    def test_random_rays_against_sphere_trace(self):
        rng = random.Random(7)
        world = WorldModel(
            bounds=Rect(-4, -4, 4, 4),
            circles=(Circle(1.5, 0.5, 0.4), Circle(-1.0, -2.0, 0.6)),
            rects=(Rect(-3.0, 1.0, -1.5, 2.0), Rect(0.5, -3.5, 2.5, -2.5)),
        )
        for _ in range(300):
            ox = rng.uniform(-3.9, 3.9)
            oy = rng.uniform(-3.9, 3.9)
            if clearance(world, ox, oy) <= 1e-3:
                continue
            angle = rng.uniform(-math.pi, math.pi)
            got = min(beam_distances(world, ox, oy, np.array([angle]))[0], 5.0)
            want, _ = sphere_trace(world, (ox, oy), angle, 5.0)
            assert got == pytest.approx(want, abs=1e-3)


class TestScan:
    def test_empty_world_all_capped(self):
        w = WorldModel(bounds=BIG)
        s = scan(w, Pose2D(0, 0, 0), 36, 5.0)
        assert np.all(s.ranges == 5.0)

    def test_front_and_back_beams(self):
        w = WorldModel(bounds=BIG, circles=(Circle(2.0, 0.0, 0.5),))
        s = scan(w, Pose2D(0, 0, 0), 36, 5.0)
        assert s.ranges[0] == pytest.approx(1.5)
        assert s.ranges[18] == pytest.approx(5.0)

    def test_compositional_with_raycast(self):
        w = WorldModel(
            bounds=Rect(-4, -4, 4, 4),
            circles=(Circle(1.0, 1.0, 0.3),),
            rects=(Rect(-2.0, -2.0, -1.0, -1.0),),
        )
        pose = Pose2D(0.3, -0.2, 0.7)
        s = scan(w, pose, 36, 5.0)
        for i in range(36):
            angle = pose.theta + i * (2.0 * math.pi / 36)
            r = min(beam_distances(w, pose.x, pose.y, np.array([angle]))[0],
                    5.0)
            assert s.ranges[i] == r

    def test_lidar_soundness(self):
        # no beam reports beyond the first surface
        rng = random.Random(3)
        w = WorldModel(
            bounds=Rect(-4, -4, 4, 4),
            circles=(Circle(2.0, 1.0, 0.5), Circle(-2.0, -1.0, 0.7)),
            rects=(Rect(0.0, -3.0, 1.0, -2.0),),
        )
        for _ in range(50):
            pose = Pose2D(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
            if clearance(w, pose.x, pose.y) <= 0.01:
                continue
            s = scan(w, pose, 36, 5.0)
            for i in range(36):
                angle = pose.theta + i * (2.0 * math.pi / 36)
                px = pose.x + (s.ranges[i] - 1e-6) * math.cos(angle)
                py = pose.y + (s.ranges[i] - 1e-6) * math.sin(angle)
                assert clearance(w, px, py) > 0.0

    def test_min_beam_count(self):
        w = WorldModel(bounds=BIG)
        with pytest.raises(ValueError):
            scan(w, Pose2D(0, 0, 0), 3, 5.0)

    def test_seeded_noise_replays(self):
        w = WorldModel(bounds=BIG, circles=(Circle(2.0, 0.0, 0.5),))
        s1 = scan(w, Pose2D(0, 0, 0), 36, 5.0, noise_std=0.01,
                  noise_rng=random.Random(11))
        s2 = scan(w, Pose2D(0, 0, 0), 36, 5.0, noise_std=0.01,
                  noise_rng=random.Random(11))
        assert np.array_equal(s1.ranges, s2.ranges)
        assert not np.array_equal(
            s1.ranges, scan(w, Pose2D(0, 0, 0), 36, 5.0).ranges
        )

    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    def test_sweeps_are_read_only(self, noise_std):
        # a belief reads its sweep's ranges after the tick that cast it
        w = WorldModel(bounds=BIG, circles=(Circle(2.0, 0.0, 0.5),))
        s = scan(w, Pose2D(0, 0, 0), 36, 5.0, noise_std=noise_std,
                 noise_rng=random.Random(11))
        assert not s.ranges.flags.writeable
        with pytest.raises(ValueError):
            s.ranges[0] = 0.0


class TestClearance:
    def test_distance_minus_radius(self):
        w = WorldModel(bounds=BIG, circles=(Circle(2.0, 0.0, 0.5),))
        assert clearance(w, 0, 0) == pytest.approx(1.5)

    def test_penetration_at_circle_center(self):
        w = WorldModel(bounds=BIG, circles=(Circle(2.0, 0.0, 0.5),))
        assert clearance(w, 2.0, 0.0) == pytest.approx(-0.5)

    def test_min_of_two_obstacles(self):
        w = WorldModel(
            bounds=BIG, circles=(Circle(2.0, 0.0, 0.5), Circle(-3.0, 0.0, 0.5))
        )
        assert clearance(w, 0, 0) == pytest.approx(1.5)
        assert clearance(w, -1.0, 0.0) == pytest.approx(1.5)

    def test_rect_inside_and_outside(self):
        w = WorldModel(bounds=BIG, rects=(Rect(1.0, 1.0, 3.0, 2.0),))
        assert clearance(w, 0.0, 1.5) == pytest.approx(1.0)
        assert clearance(w, 2.0, 1.5) == pytest.approx(-0.5)
        assert clearance(w, 0.0, 0.0) == pytest.approx(math.hypot(1.0, 1.0))

    def test_bounds_edge(self):
        w = WorldModel(bounds=Rect(-2.0, -2.0, 2.0, 2.0))
        assert clearance(w, 0.0, 0.0) == pytest.approx(2.0)
        assert clearance(w, 1.5, 0.0) == pytest.approx(0.5)


class TestWorldValidation:
    def test_bad_radius(self):
        with pytest.raises(ValueError, match="radius"):
            WorldModel(bounds=BIG, circles=(Circle(0, 0, 0.0),))

    def test_rect_corners(self):
        with pytest.raises(ValueError, match="corner"):
            WorldModel(bounds=BIG, rects=(Rect(1, 1, 1, 2),))

    def test_obstacle_outside_bounds(self):
        with pytest.raises(ValueError, match="inside bounds"):
            WorldModel(bounds=Rect(-1, -1, 1, 1), circles=(Circle(0.9, 0, 0.5),))


class TestStepWorld:
    robot = RobotParams()

    def test_acceleration_clamp(self):
        w = WorldModel(bounds=BIG)
        s0 = RobotState(pose=Pose2D(0, 0, 0))
        s1, _ = step_world(s0, w, 0.5, 0.5, 0.01, self.robot)
        assert s1.v_left == pytest.approx(0.01)
        assert s1.v_right == pytest.approx(0.01)
        assert s1.load == pytest.approx(1.0)

    def test_collision_threshold(self):
        w = WorldModel(bounds=BIG, circles=(Circle(0.6, 0.0, 0.5),))
        s0 = RobotState(pose=Pose2D(0, 0, 0))  # clearance 0.10 < radius 0.15
        s1, _ = step_world(s0, w, 0.0, 0.0, 0.01, self.robot)
        assert s1.collided

    def test_zero_acceleration_zero_load(self):
        w = WorldModel(bounds=BIG)
        s0 = RobotState(pose=Pose2D(0, 0, 0), v_left=0.2, v_right=0.2)
        s1, _ = step_world(s0, w, 0.2, 0.2, 0.01, self.robot)
        assert s1.load == 0.0

    def test_collided_is_monotone(self):
        w = WorldModel(bounds=BIG)
        s = RobotState(pose=Pose2D(0, 0, 0), collided=True)
        s, _ = step_world(s, w, 0.0, 0.0, 0.01, self.robot)
        assert s.collided

    def test_acceleration_bound_over_trajectory(self):
        w = WorldModel(bounds=BIG)
        rng = random.Random(5)
        s = RobotState(pose=Pose2D(0, 0, 0))
        dv_cap = self.robot.a_max * 0.01 + 1e-12
        for _ in range(500):
            cmd = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            nxt, _ = step_world(s, w, cmd[0], cmd[1], 0.01, self.robot)
            assert abs(nxt.v_left - s.v_left) <= dv_cap
            assert abs(nxt.v_right - s.v_right) <= dv_cap
            assert abs(nxt.v_left) <= self.robot.v_wheel_max
            assert abs(nxt.v_right) <= self.robot.v_wheel_max
            s = nxt

    def test_determinism_bit_identical(self):
        w = WorldModel(bounds=BIG, circles=(Circle(1.0, 0.5, 0.3),))
        cmds = [(0.1 * math.sin(i / 7), 0.2 * math.cos(i / 9)) for i in range(200)]

        def run():
            s = RobotState(pose=Pose2D(0, 0, 0))
            out = []
            for cl, cr in cmds:
                s, _ = step_world(s, w, cl, cr, 0.01, self.robot)
                out.append((s.pose.x, s.pose.y, s.pose.theta, s.v_left, s.v_right))
            return out

        assert run() == run()


class TestDeviceSim:
    def test_hold_and_step(self):
        # at speed, one command held for one step, then nothing: the wheels
        # brake at a_max, as the predictive check models
        robot = RobotParams()
        dev = DeviceSim(WorldModel(bounds=BIG),
                        RobotState(pose=Pose2D(0, 0, 0), v_left=0.5,
                                   v_right=0.5), robot, LidarParams())
        dev.set_wheel_command(0.5, 0.5, 1)
        state = dev.step(0.01)
        assert (state.v_left, state.v_right) == (0.5, 0.5)
        dv = robot.a_max * 0.01
        speeds = [0.5]
        while speeds[-1] > 0.0:
            state = dev.step(0.01)
            assert state.v_left == state.v_right
            assert state.v_left == pytest.approx(max(speeds[-1] - dv, 0.0))
            speeds.append(state.v_left)
        assert len(speeds) == round(0.5 / dv) + 1
        assert dev.step(0.01).v_left == 0.0

    def test_hold_lasts_its_duration(self):
        dev = DeviceSim(WorldModel(bounds=BIG),
                        RobotState(pose=Pose2D(0, 0, 0)), RobotParams(),
                        LidarParams())
        dev.set_wheel_command(0.3, 0.2, 3)
        targets = []
        for _ in range(5):
            targets.append((dev.cmd_v_left, dev.cmd_v_right))
            dev.step(0.01)
        assert targets == [(0.3, 0.2)] * 3 + [(0.0, 0.0)] * 2
        dev.set_wheel_command(0.3, 0.2, 5)
        dev.stop()  # an explicit stop ends the hold at once
        assert (dev.cmd_v_left, dev.cmd_v_right, dev.hold_ticks) == (0, 0, 0)

    def test_acquire_scan(self):
        w = WorldModel(bounds=BIG, circles=(Circle(2.0, 0.0, 0.5),))
        dev = DeviceSim(w, RobotState(pose=Pose2D(0, 0, 0)), RobotParams(),
                        LidarParams())
        s = dev.acquire_scan()
        assert s.origin == dev.state.pose
        assert s.ranges[0] == pytest.approx(1.5)
