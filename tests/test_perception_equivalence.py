"""Per-sweep perception and the predictive-check kernel against frozen
references.

The fused ray cast, one sweep object per pose (a stationary noise-free
device hands back the sweep it last cast), one reduction per sweep object,
the scan digest, the sweep's hit points built on first read and shared by
every belief of that sweep, and the lean trajectory kernel must leave every
floating-point result bit-identical, so each is compared here with ``==`` /
``np.array_equal`` against a reference that keeps the straightforward form:
one obstacle at a time, a fresh scan, one ``min`` per sector, every hit
point built when the sweep arrives, the plain sample loop.
"""

import math
import random
import functools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_stack
from instinctsim import instinct
from instinctsim.config import InstinctParams, LidarParams, PHYSICS_DT, RobotParams
from instinctsim.instinct import _trajectory_clearances, predict_trajectory
from instinctsim.messages import (
    HighCommand, HighKind, Mode, N_SECTORS, ScanSummary)
from instinctsim.scenario import random_scenario
from instinctsim.world import (
    RAY_T_EPS,
    Circle,
    DeviceSim,
    LidarScan,
    Pose2D,
    Rect,
    RobotState,
    WorldModel,
    beam_distances,
    clearance,
    scan,
)

ROBOT = RobotParams()
PARAMS = InstinctParams()


# -- frozen references --------------------------------------------------------

def reference_predict_trajectory(pose, v_left, v_right, hold_s, robot, dt_pred):
    """The sample loop as first written: sin/cos recomputed every substep and
    the samples gathered as a list of tuples."""
    brake_s = max(abs(v_left), abs(v_right)) / robot.a_max
    horizon = hold_s + brake_s + 0.1
    x, y, th = pose.x, pose.y, pose.theta
    vl, vr = v_left, v_right
    pts = [(x, y)]
    t = 0.0
    while t < horizon - 1e-12:
        step = min(dt_pred, horizon - t)
        clipped = t < hold_s < t + step
        if clipped:
            step = hold_s - t
        braking = t >= hold_s
        v = 0.5 * (vl + vr)
        omega = (vr - vl) / robot.axle
        if abs(omega) > 1e-9:
            th_end = th + omega * step
            radius = v / omega
            x += radius * (math.sin(th_end) - math.sin(th))
            y -= radius * (math.cos(th_end) - math.cos(th))
            th = th_end
        else:
            x += v * math.cos(th) * step
            y += v * math.sin(th) * step
        pts.append((x, y))
        if braking:
            dv = robot.a_max * step
            vl -= math.copysign(min(abs(vl), dv), vl) if vl else 0.0
            vr -= math.copysign(min(abs(vr), dv), vr) if vr else 0.0
        t = hold_s if clipped else t + step
    return np.array(pts)


def reference_trajectory_clearances(samples, points, bounds, radius):
    """Full (S, K, 2) difference tensor, sqrt of every distance, and the
    per-sample bounds margins."""
    if points.shape[0]:
        diff = samples[:, None, :] - points[None, :, :]
        obstacle_min = float(np.sqrt((diff * diff).sum(-1)).min()) - radius
    else:
        obstacle_min = math.inf
    xs = samples[:, 0]
    ys = samples[:, 1]
    inner = np.minimum(
        np.minimum(xs - bounds.x0, bounds.x1 - xs),
        np.minimum(ys - bounds.y0, bounds.y1 - ys),
    )
    return obstacle_min, float(inner.min()) - radius


def _reference_beam_geometry(n_beams):
    rel = np.arange(n_beams) * (2.0 * math.pi / n_beams)
    rel = np.mod(rel + math.pi, 2.0 * math.pi) - math.pi
    sector = np.round(rel / (2.0 * math.pi / N_SECTORS)).astype(int) % N_SECTORS
    sectors = [np.flatnonzero(sector == k) for k in range(N_SECTORS)]
    return rel, sectors, np.abs(rel) <= math.pi / 4.0 + 1e-12


def reference_summarize(scan_, state, mode, tick):
    """Eight fancy-index minima and ``np.argmin``."""
    rel, sectors, _ = _reference_beam_geometry(scan_.n_beams)
    mins = tuple(
        float(scan_.ranges[idx].min()) if idx.size else scan_.max_range
        for idx in sectors
    )
    nearest_idx = int(np.argmin(scan_.ranges))
    return ScanSummary(
        sector_min=mins,
        max_range=scan_.max_range,
        nearest_bearing=float(rel[nearest_idx]),
        nearest_range=float(scan_.ranges[nearest_idx]),
        pose=scan_.origin, load=state.load, mode=mode, tick=tick,
    )


def reference_front_min_range(scan_):
    _, _, front = _reference_beam_geometry(scan_.n_beams)
    return float(scan_.ranges[front].min())


def reference_belief_points(scan_):
    """A boolean mask and ``np.column_stack``."""
    hits = scan_.ranges < scan_.max_range
    o = scan_.origin
    angles = o.theta + (2.0 * math.pi / scan_.n_beams) * np.flatnonzero(hits)
    r = scan_.ranges[hits]
    return np.column_stack((o.x + r * np.cos(angles), o.y + r * np.sin(angles)))


def eager_belief_points(scan_):
    """Every hit's endpoint built when the scan arrives, into one
    preallocated array, from the directions the ray cast computed."""
    ranges = scan_.ranges
    idx = (ranges < scan_.max_range).nonzero()[0]
    points = np.empty((idx.shape[0], 2))
    np.multiply(ranges[idx], scan_.directions[:, idx], out=points.T)
    points += (scan_.origin.x, scan_.origin.y)
    return points


def reference_reach(scan_):
    """The nearest hit range, inf without hits."""
    hits = scan_.ranges[scan_.ranges < scan_.max_range]
    return float(hits.min()) if hits.size else math.inf


def _slab(ox, oy, dx, dy, x0, y0, x1, y1):
    """First positive ray parameter against one rect (slab test), inf if none."""
    tiny = 1e-300
    sdx = np.where(np.abs(dx) < tiny, np.copysign(tiny, dx), dx)
    sdy = np.where(np.abs(dy) < tiny, np.copysign(tiny, dy), dy)
    ta, tb = (x0 - ox) / sdx, (x1 - ox) / sdx
    txmin, txmax = np.minimum(ta, tb), np.maximum(ta, tb)
    ta, tb = (y0 - oy) / sdy, (y1 - oy) / sdy
    tymin, tymax = np.minimum(ta, tb), np.maximum(ta, tb)
    tmin = np.maximum(txmin, tymin)
    tmax = np.minimum(txmax, tymax)
    hit = tmax >= np.maximum(tmin, 0.0)
    t = np.where(tmin > RAY_T_EPS, tmin,
                 np.where(tmax > RAY_T_EPS, tmax, np.inf))
    return np.where(hit, t, np.inf)


def reference_beam_distances(world, ox, oy, angles):
    """Bounds, then each circle, then each rect, one obstacle at a time."""
    dx = np.cos(angles)
    dy = np.sin(angles)
    b = world.bounds
    best = _slab(ox, oy, dx, dy, b.x0, b.y0, b.x1, b.y1)
    for c in world.circles:
        fx = np.float64(c.cx) - ox
        fy = np.float64(c.cy) - oy
        bb = dx * fx + dy * fy
        disc = bb * bb - (fx * fx + fy * fy - np.float64(c.radius) ** 2)
        sq = np.sqrt(np.maximum(disc, 0.0))
        t1, t2 = bb - sq, bb + sq
        t = np.where(t1 > RAY_T_EPS, t1, np.where(t2 > RAY_T_EPS, t2, np.inf))
        best = np.minimum(best, np.where(disc >= 0.0, t, np.inf))
    for r in world.rects:
        best = np.minimum(best, _slab(ox, oy, dx, dy, r.x0, r.y0, r.x1, r.y1))
    return best


# -- predictive-check kernel ---------------------------------------------------

_WHEEL = st.floats(-ROBOT.v_wheel_max, ROBOT.v_wheel_max)


@st.composite
def wheel_pairs(draw):
    """Wheel speeds including the degenerate cases the arc branch guards."""
    kind = draw(st.sampled_from(["any", "zero", "equal", "near_equal"]))
    if kind == "zero":
        return 0.0, 0.0
    vl = draw(_WHEEL)
    if kind == "equal":
        return vl, vl
    if kind == "near_equal":  # omega within a few 1e-9 of zero
        return vl, vl + draw(st.floats(-3e-9, 3e-9)) * ROBOT.axle
    return vl, draw(_WHEEL)


class TestPredictiveKernel:
    @settings(max_examples=600, deadline=None)
    @given(
        x=st.floats(-20, 20), y=st.floats(-20, 20),
        theta=st.floats(-math.pi, math.pi),
        wheels=wheel_pairs(),
        dt_pred=st.one_of(
            st.just(PARAMS.dt_pred),
            st.sampled_from([0.001, 0.005, 0.01, 0.015, 0.03, 0.05, 0.1, 0.3,
                             1.0]),
            st.floats(0.001, 1.0)),
        hold=st.one_of(st.tuples(st.just("ticks"), st.integers(1, 200)),
                       st.tuples(st.just("steps"), st.integers(1, 100))),
    )
    def test_trajectory_matches_reference_loop(self, x, y, theta, wheels,
                                               dt_pred, hold):
        # "steps" holds are k * dt_pred: the summed hold steps land within
        # rounding of hold_s, where the hold phase hands over to braking;
        # dt_pred above the braking horizon clips the last step to it
        unit, count = hold
        hold_s = count * (PHYSICS_DT if unit == "ticks" else dt_pred)
        args = (Pose2D(x, y, theta), *wheels, hold_s, ROBOT, dt_pred)
        got = predict_trajectory(*args)
        want = reference_predict_trajectory(*args)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        wheels=wheel_pairs(),
        hold_ticks=st.integers(1, 200),
        n_points=st.integers(0, 36),
    )
    def test_clearances_match_reference(self, seed, wheels, hold_ticks,
                                        n_points):
        rng = random.Random(seed)
        pose = Pose2D(rng.uniform(-3, 3), rng.uniform(-3, 3),
                      rng.uniform(-math.pi, math.pi))
        samples = predict_trajectory(pose, *wheels, hold_ticks * PHYSICS_DT,
                                     ROBOT, PARAMS.dt_pred)
        points = np.array([(rng.uniform(-4, 4), rng.uniform(-4, 4))
                           for _ in range(n_points)]).reshape(-1, 2)
        bounds = Rect(-4.0, -4.0, 4.0, 4.0)
        got = _trajectory_clearances(samples, points, bounds, ROBOT.radius)
        want = reference_trajectory_clearances(samples, points, bounds,
                                               ROBOT.radius)
        assert got == want


# -- scan digest --------------------------------------------------------------

@st.composite
def lidar_scans(draw, min_beams=4, max_beams=72):
    """Scans with repeated ranges (ties) and max_range misses."""
    n = draw(st.integers(min_beams, max_beams))
    max_range = draw(st.sampled_from([5.0, 3.5]))
    value = st.one_of(st.sampled_from([0.3, 1.25, max_range]),
                      st.floats(1e-6, max_range))
    ranges = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    heading = draw(st.floats(-math.pi, math.pi))
    return LidarScan(ranges=ranges, origin=Pose2D(0.7, -1.2, heading),
                     max_range=max_range)


class TestScanDigest:
    STATE = RobotState(pose=Pose2D(0.7, -1.2, 0.3), load=0.4)
    TICK = 4321

    def _assert_matches_reference(self, scan_):
        got = instinct.summarize(scan_, self.STATE, Mode.SAFE, self.TICK)
        assert got == reference_summarize(scan_, self.STATE, Mode.SAFE,
                                          self.TICK)
        # a sector is occupied iff one of its beams hit (the belief's rule)
        _, sectors, _ = _reference_beam_geometry(scan_.n_beams)
        hits = scan_.ranges < scan_.max_range
        assert got.occupied() == [k for k, idx in enumerate(sectors)
                                  if hits[idx].any()]
        assert all(type(m) is float for m in got.sector_min)
        assert type(got.nearest_bearing) is float
        assert instinct.front_min_range(scan_) == \
            reference_front_min_range(scan_)
        # the one reduction each sweep gets
        d = scan_.digest
        assert d == (got.sector_min, reference_front_min_range(scan_),
                     got.nearest_bearing, got.nearest_range)
        assert type(d.front_min) is float and type(d.nearest_range) is float
        belief = instinct.ObstacleBelief.from_scan(scan_, 0)
        assert belief.reach == reference_reach(scan_)
        points = belief.points
        want = reference_belief_points(scan_)
        assert points.shape == want.shape
        assert np.array_equal(points, want)

    @settings(max_examples=400, deadline=None)
    @given(scan_=lidar_scans())
    def test_matches_reference(self, scan_):
        self._assert_matches_reference(scan_)

    @settings(max_examples=200, deadline=None)
    @given(scan_=lidar_scans(max_beams=7))
    def test_few_beams_leave_sectors_empty(self, scan_):
        _, sectors, _ = _reference_beam_geometry(scan_.n_beams)
        assert any(idx.size == 0 for idx in sectors)
        self._assert_matches_reference(scan_)


# -- fused ray cast ------------------------------------------------------------

class TestFusedRayCast:
    # headings whose beams run exactly along an axis (a zero direction
    # component, of either sign) or within rounding of one
    AXIS_HEADINGS = (0.0, -0.0, math.pi / 2, -math.pi / 2)

    def test_matches_per_obstacle_reference(self):
        rng = random.Random(11)
        for n_beams in (4, 36, 37):
            for i in range(150):
                world = random_scenario(rng.randrange(2**32)).world
                b = world.bounds
                # origins outside the bounds and inside obstacles included
                ox = rng.uniform(b.x0 - 1.0, b.x1 + 1.0)
                oy = rng.uniform(b.y0 - 1.0, b.y1 + 1.0)
                theta = (self.AXIS_HEADINGS[i] if i < 4
                         else rng.uniform(-4.0, 4.0))
                angles = theta + np.arange(n_beams) * (2.0 * math.pi
                                                       / n_beams)
                got = beam_distances(world, ox, oy, angles)
                want = reference_beam_distances(world, ox, oy, angles)
                assert np.array_equal(got, want), (n_beams, i)

    def test_scan_carries_the_directions_it_cast(self):
        world = random_scenario(5).world
        for n_beams in (4, 36, 37):
            for theta in self.AXIS_HEADINGS + (0.7, -2.9):
                pose = Pose2D(0.3, -0.2, theta)
                for noise_std in (0.0, 0.02):
                    sweep = scan(world, pose, n_beams, 5.0,
                                 noise_std=noise_std,
                                 noise_rng=random.Random(1))
                    # the directions a hand-built scan derives from its angles
                    bare = LidarScan(sweep.ranges, sweep.origin,
                                     sweep.max_range)
                    assert np.array_equal(sweep.directions, bare.directions)
                    assert not sweep.directions.flags.writeable
                    points = instinct.ObstacleBelief.from_scan(sweep,
                                                               0).points
                    want = reference_belief_points(sweep)
                    assert points.shape == want.shape
                    assert np.array_equal(points, want)

    def test_axis_aligned_rays_and_touching_origins(self):
        world = WorldModel(bounds=Rect(-2.0, -2.0, 2.0, 2.0),
                           circles=(Circle(1.0, 0.0, 0.5),),
                           rects=(Rect(-1.5, -1.5, -0.5, -0.5),))
        angles = np.array([0.0, math.pi / 2, math.pi, -math.pi / 2, 0.3])
        for ox, oy in [(0.0, 0.0), (0.5, 0.0), (-0.5, -0.5), (-1.0, -1.0),
                       (2.0, 0.0)]:
            assert np.array_equal(beam_distances(world, ox, oy, angles),
                                  reference_beam_distances(world, ox, oy, angles))

    def test_world_tables_stay_out_of_identity(self):
        a = WorldModel(bounds=Rect(-2, -2, 2, 2), circles=(Circle(1, 0, 0.5),))
        b = WorldModel(bounds=Rect(-2, -2, 2, 2), circles=(Circle(1, 0, 0.5),))
        assert a == b and hash(a) == hash(b)
        assert "_slabs" not in repr(a) and "_circ" not in repr(a)


# -- one sweep object per pose -------------------------------------------------

def _device(noise_std=0.0, seed=None):
    world = WorldModel(bounds=Rect(-4, -4, 4, 4),
                       circles=(Circle(1.5, 0.5, 0.4),),
                       rects=(Rect(-3.0, 1.0, -1.5, 2.0),))
    return DeviceSim(world, RobotState(pose=Pose2D(0.2, -0.3, 0.4)),
                     RobotParams(), LidarParams(noise_std=noise_std),
                     noise_rng=None if seed is None else random.Random(seed))


class TestScanReuse:
    def test_stationary_device_returns_the_same_sweep(self):
        dev = _device()
        dev.step(PHYSICS_DT)  # the heading settles through wrap_angle
        first = dev.acquire_scan()
        dev.step(PHYSICS_DT)  # zero wheel command: the pose does not change
        second = dev.acquire_scan()
        assert second is first
        assert not second.ranges.flags.writeable
        with pytest.raises(ValueError):
            second.ranges[0] = 0.0
        fresh = scan(dev.world, dev.state.pose, 36, 5.0)
        assert np.array_equal(second.ranges, fresh.ranges)
        assert second.origin == fresh.origin
        assert second.max_range == fresh.max_range

    def test_moving_robot_rescans(self):
        dev = _device()
        first = dev.acquire_scan()
        dev.set_wheel_command(0.3, 0.35, 1)
        dev.step(PHYSICS_DT)
        second = dev.acquire_scan()
        assert second is not first
        assert second.ranges is not first.ranges
        assert second.origin == dev.state.pose
        fresh = scan(dev.world, dev.state.pose, 36, 5.0)
        assert np.array_equal(second.ranges, fresh.ranges)

    def test_noisy_lidar_never_reuses(self):
        dev = _device(noise_std=0.01, seed=5)
        ref_rng = random.Random(5)
        pose = dev.state.pose
        seen = []
        for _ in range(3):
            got = dev.acquire_scan()
            want = scan(dev.world, pose, 36, 5.0, noise_std=0.01,
                        noise_rng=ref_rng)
            assert np.array_equal(got.ranges, want.ranges)
            assert all(got is not s for s in seen)
            seen.append(got)
        assert dev.noise_rng.getstate() == ref_rng.getstate()

    def test_ground_truth_clearance_follows_the_pose(self):
        dev = _device()
        dev.set_wheel_command(0.3, 0.3, 1)
        state = dev.step(PHYSICS_DT)
        assert dev.ground_truth_clearance() == clearance(
            dev.world, state.pose.x, state.pose.y)
        dev.state = RobotState(pose=Pose2D(1.0, 0.5, 0.0))  # placed by hand
        assert dev.ground_truth_clearance() == clearance(dev.world, 1.0, 0.5)


# -- per-scan perception in the instinct tick ----------------------------------

def _count_digests(monkeypatch):
    """The sweeps whose ``digest`` gets built, in order (kept alive, so
    each identity is unique)."""
    sweeps = []
    original = LidarScan.__dict__["digest"].func

    def counting(sweep):
        sweeps.append(sweep)
        return original(sweep)

    digest = functools.cached_property(counting)
    digest.__set_name__(LidarScan, "digest")
    monkeypatch.setattr(LidarScan, "digest", digest)
    return sweeps


class TestPerScanPerception:
    WORLD = WorldModel(bounds=Rect(-4, -4, 4, 4),
                       circles=(Circle(1.5, 1.0, 0.4), Circle(-1.0, -1.5, 0.5)))

    def test_repeated_sweep_belief_is_stamped_now_and_shares_its_points(
            self):
        stack = make_stack(world=self.WORLD)
        stack.controller.tick(0)
        first = stack.controller.belief
        sweep = stack.device.acquire_scan()
        stack.controller.tick(1)  # device not stepped: same pose, same sweep
        second = stack.controller.belief
        assert second is not first
        assert (first.built_tick, second.built_tick) == (0, 1)
        assert second.points is sweep.hits
        assert first.points is sweep.hits
        assert not second.points.flags.writeable
        # the fast path reads the reach only at the belief's origin
        assert (second.origin, second.reach) == (first.origin, first.reach)

    def test_summaries_equal_fresh_summaries_and_run_once_per_tick(
            self, monkeypatch):
        calls = _count_digests(monkeypatch)
        summarize = instinct.summarize
        summarized = []  # the tick of each summary the controller builds

        def counting(scan, state, mode, tick):
            summarized.append(tick)
            return summarize(scan, state, mode, tick)

        monkeypatch.setattr(instinct, "summarize", counting)
        stack = make_stack(world=self.WORLD,
                           params=InstinctParams(roaming=True))
        for now in range(400):
            if not 200 <= now < 240:  # no physics: the pose holds, sweeps reused
                stack.device.step(PHYSICS_DT)
            stack.controller.tick(now)
            pose = stack.device.state.pose
            assert stack.controller.belief.origin == (pose.x, pose.y)
            fresh = summarize(
                scan(stack.world, stack.device.state.pose, 36, 5.0),
                stack.device.state, stack.controller.mode, now)
            calls.pop()  # the reference summary above
            assert stack.data.poll(now) == [fresh]
        assert len(calls) == len({id(s) for s in calls})
        assert 200 + 1 <= len(calls) <= 400 - 39
        # one summary per tick, roaming ones included
        roamed = {e.tick for e in stack.recorder.events
                  if e.kind == "verdict" and e.payload["parent_id"] == "SURVIVAL"}
        assert len(roamed) > 100
        assert summarized == list(range(400))

    def test_summary_carries_mode_set_mid_tick(self, monkeypatch):
        # a surface inside d_stop: the tick enters safe mode before it reports
        world = WorldModel(bounds=Rect(-4, -4, 4, 4),
                           circles=(Circle(0.55, 0.0, 0.35),))
        calls = _count_digests(monkeypatch)
        stack = make_stack(world=world)
        for now in range(3):
            stack.controller.tick(now)
            (summary,) = stack.data.poll(now)
            assert summary.mode is stack.controller.mode
            assert summary.tick == now
        assert summary.mode.value == "SAFE"
        # the robot never moved: one sweep, one digest
        assert calls == [stack.device.acquire_scan()]


# -- hit points built on first read --------------------------------------------

def _count_hit_builds(monkeypatch):
    """The sweeps whose ``hits`` get built, in order."""
    builds = []
    original = LidarScan.__dict__["hits"].func

    def counting(sweep):
        builds.append(sweep)
        return original(sweep)

    hits = functools.cached_property(counting)
    hits.__set_name__(LidarScan, "hits")
    monkeypatch.setattr(LidarScan, "hits", hits)
    return builds


class TestPointsOnDemand:
    def test_hits_equal_the_eager_build(self, monkeypatch):
        builds = _count_hit_builds(monkeypatch)
        rng = random.Random(3)
        for n_beams in (4, 36, 37):
            for noise_std in (0.0, 0.02):
                for _ in range(40):
                    world = random_scenario(rng.randrange(2**32)).world
                    pose = Pose2D(rng.uniform(-3.5, 3.5),
                                  rng.uniform(-3.5, 3.5),
                                  rng.uniform(-math.pi, math.pi))
                    sweep = scan(world, pose, n_beams, 5.0,
                                 noise_std=noise_std,
                                 noise_rng=random.Random(rng.random()))
                    builds.clear()
                    points = sweep.hits
                    want = eager_belief_points(sweep)
                    assert points.dtype == want.dtype
                    assert points.shape == want.shape
                    assert np.array_equal(points, want)
                    assert not points.flags.writeable
                    with pytest.raises(ValueError):
                        points[...] = 0.0
                    assert sweep.hits is points  # built once per sweep
                    assert builds == [sweep]
                    # the points of every belief of this sweep, read on
                    # any later tick
                    for tick in (7, 8):
                        belief = instinct.ObstacleBelief.from_scan(sweep,
                                                                   tick)
                        assert belief.points is points
                        assert belief.built_tick == tick
                        assert belief.reach == reference_reach(sweep)
                    assert builds == [sweep]

    def test_belief_drops_its_sweep_once_points_exist(self):
        sweep = scan(random_scenario(1).world, Pose2D(0.0, 0.0, 0.0), 36, 5.0)
        belief = instinct.ObstacleBelief.from_scan(sweep, 0)
        alive = weakref.ref(sweep)
        del sweep
        assert alive() is not None  # the points are not read yet
        belief.points
        assert alive() is None

    def test_only_the_full_check_builds_points_once_per_sweep(
            self, monkeypatch):
        builds = _count_hit_builds(monkeypatch)
        world = WorldModel(bounds=Rect(-4, -4, 4, 4),
                           circles=(Circle(3.0, 0.0, 0.5),))
        stack = make_stack(world=world)

        def verdicts(ticks):
            return [e.payload for e in stack.recorder.events
                    if e.kind == "verdict" and e.tick in ticks]

        # a turn far from every return: the travel bound approves each
        # tick's motion, and no sweep builds its points
        stack.command.transmit(HighCommand(1, HighKind.ROTATE_TO, 0,
                                           theta=math.pi), 0)
        for now in range(20):
            stack.device.step(PHYSICS_DT)
            stack.controller.tick(now)
        fast = verdicts(range(20))
        assert len(fast) == 20
        assert all(v["safe"] and v["bound"] == "disc" for v in fast)
        assert builds == []
        # the turn goes on with one sweep cast 0.5 m from the pose: the
        # belief is not at the pose, so every check is full; the repeated
        # sweep builds its points in its first check, and the beliefs of
        # later ticks reuse them
        sweep = scan(world, Pose2D(0.5, 0.0, 0.0), 36, 5.0)
        stack.device.acquire_scan = lambda: sweep
        for now in range(20, 30):
            stack.device.step(PHYSICS_DT)
            stack.controller.tick(now)
        full = verdicts(range(20, 30))
        assert len(full) == 10
        assert all(v["safe"] and "bound" not in v for v in full)
        assert builds == [sweep]
