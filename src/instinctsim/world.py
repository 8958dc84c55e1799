"""Ground-truth 2D world, differential-drive kinematics, and device models.

All operations here are pure functions over value types; ``DeviceSim`` is a
thin stateful shell bundling the motor (wheel commands + acceleration limit),
lidar (ray-cast scan, optional seeded noise), and encoder (pose readout) so
the instinct layer has a single device interface.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import LidarParams, RobotParams

TWO_PI = 2.0 * math.pi
# Wheel-speed asymmetry below this yaw rate is integrated as straight-line
# motion; above it the exact arc form is used so results are dt-robust.
OMEGA_STRAIGHT_EPS = 1e-9
# Ray parameter floor: intersections at t <= this are treated as the origin
# sitting on a surface and skipped in favour of the next one.
RAY_T_EPS = 1e-12
N_SECTORS = 8  # sectors of a sweep's digest; sector 0 is centered on the heading


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.fmod(angle + math.pi, TWO_PI)
    if a <= 0.0:
        a += TWO_PI
    return a - math.pi


@dataclass(frozen=True)
class Pose2D:
    """Robot pose in world coordinates; theta kept in (-pi, pi]."""

    x: float
    y: float
    theta: float


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    radius: float


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, min corner (x0, y0) strictly below (x1, y1)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


@dataclass(frozen=True)
class WorldModel:
    """Static obstacle map: solid circles and rects inside a bounding rect."""

    bounds: Rect
    circles: tuple[Circle, ...] = ()
    rects: tuple[Rect, ...] = ()
    # Ray-cast tables, built once; excluded from comparisons/hash/repr.
    # Obstacle-major columns that broadcast against a row of beams.
    # _slabs: (2, 2, 1 + len(rects), 1), the lower corners (x0, y0) then the
    # upper corners (x1, y1) of the bounds (first) and every rect;
    # _circ: (3, len(circles), 1), the centers (cx, cy) then radius**2.
    _slabs: np.ndarray = field(init=False, repr=False, compare=False)
    _circ: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        b = self.bounds
        if not (b.x0 < b.x1 and b.y0 < b.y1):
            raise ValueError(f"bounds min corner must be below max corner: {b}")
        for c in self.circles:
            if c.radius <= 0.0:
                raise ValueError(f"circle radius must be positive: {c}")
            inside = (
                b.x0 <= c.cx - c.radius
                and c.cx + c.radius <= b.x1
                and b.y0 <= c.cy - c.radius
                and c.cy + c.radius <= b.y1
            )
            if not inside:
                raise ValueError(f"circle must lie inside bounds: {c}")
        for r in self.rects:
            if not (r.x0 < r.x1 and r.y0 < r.y1):
                raise ValueError(f"rect min corner must be below max corner: {r}")
            if not (b.x0 <= r.x0 and r.x1 <= b.x1 and b.y0 <= r.y0 and r.y1 <= b.y1):
                raise ValueError(f"rect must lie inside bounds: {r}")
        slabs = np.array([(r.x0, r.y0, r.x1, r.y1) for r in (b, *self.rects)],
                         dtype=float)
        slabs = np.ascontiguousarray(slabs.T.reshape(2, 2, -1, 1))
        circ = np.array([(c.cx, c.cy, c.radius) for c in self.circles],
                        dtype=float).reshape(-1, 3)
        circ = np.ascontiguousarray(circ.T.reshape(3, -1, 1))
        circ[2] **= 2
        slabs.flags.writeable = False
        circ.flags.writeable = False
        object.__setattr__(self, "_slabs", slabs)
        object.__setattr__(self, "_circ", circ)


def random_world(rng: random.Random,
                 n_obstacles: tuple[int, int]) -> WorldModel:
    """Seeded world in the 8 m square around the origin: a count drawn from
    ``n_obstacles`` (inclusive), each a circle of radius 0.2-0.6 m with
    probability 0.6, else a rect with sides of 0.3-1.2 m."""
    bounds = Rect(-4.0, -4.0, 4.0, 4.0)
    circles: list[Circle] = []
    rects: list[Rect] = []
    for _ in range(rng.randint(*n_obstacles)):
        if rng.random() < 0.6:
            radius = rng.uniform(0.2, 0.6)
            circles.append(Circle(
                rng.uniform(bounds.x0 + radius, bounds.x1 - radius),
                rng.uniform(bounds.y0 + radius, bounds.y1 - radius),
                radius,
            ))
        else:
            w = rng.uniform(0.3, 1.2)
            h = rng.uniform(0.3, 1.2)
            x0 = rng.uniform(bounds.x0, bounds.x1 - w)
            y0 = rng.uniform(bounds.y0, bounds.y1 - h)
            rects.append(Rect(x0, y0, x0 + w, y0 + h))
    return WorldModel(bounds=bounds, circles=tuple(circles),
                      rects=tuple(rects))


@dataclass(frozen=True)
class RobotState:
    """Physical robot state; ``collided`` is monotone within a run."""

    pose: Pose2D
    v_left: float = 0.0
    v_right: float = 0.0
    load: float = 0.0       # fraction of the acceleration budget used, [0, 1]
    collided: bool = False


@dataclass(frozen=True, eq=False)
class LidarScan:
    """One sweep cast from ``origin``: beam i points at ``origin.theta +
    beam_offsets(n)[i]`` (world frame); a beam that hits nothing reports
    exactly ``max_range``.

    A sweep is a value of its pose, not of a time: when it was read is the
    reader's ``now``, and one sweep object may be read on many ticks
    (``DeviceSim.acquire_scan``). What is derived from it lives on it, built
    on first read, so every reader shares one build: the hit points
    (``hits``) and the sector reduction (``digest``).

    ``directions`` holds each beam's unit direction as ``unit_directions``
    gives it, (2, n) and read-only. ``scan`` passes the directions it cast
    along; a scan built without them computes them from those angles.
    """

    ranges: np.ndarray
    origin: Pose2D
    max_range: float
    directions: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.directions is None:
            d = unit_directions(self.origin.theta
                                + beam_offsets(len(self.ranges)))
            d.flags.writeable = False
            object.__setattr__(self, "directions", d)

    @property
    def n_beams(self) -> int:
        return len(self.ranges)

    @functools.cached_property
    def hits(self) -> np.ndarray:
        """(K, 2) world-frame endpoints of the beams that hit, in beam
        order; built on first read, read-only. Each endpoint takes one
        multiply and one add per coordinate, from ``directions``."""
        ranges = self.ranges
        idx = (ranges < self.max_range).nonzero()[0]
        points = np.empty((idx.shape[0], 2))
        np.multiply(ranges[idx], self.directions[:, idx], out=points.T)
        points += (self.origin.x, self.origin.y)
        points.flags.writeable = False
        return points

    @functools.cached_property
    def digest(self) -> SweepDigest:
        """The sweep reduced once: one fancy index groups the beams by
        sector and appends the front beams, one ``np.minimum.reduceat``
        takes every group's minimum, and one ``argmin`` finds the nearest
        return. A minimum is exact in any order, so these equal per-group
        ``min`` calls."""
        g = _beam_geometry(self.n_beams)
        ranges = self.ranges
        mins = np.minimum.reduceat(ranges[g.index], g.starts).tolist()
        front_min = mins.pop()
        for k in g.empty:
            mins.insert(k, self.max_range)
        nearest = int(ranges.argmin())
        return SweepDigest(tuple(mins), front_min, g.bearing[nearest],
                           float(ranges[nearest]))


def step_kinematics(
    pose: Pose2D, v_left: float, v_right: float, axle: float, dt: float
) -> Pose2D:
    """Advance a differential-drive pose by dt at constant wheel speeds.

    Uses the exact circular-arc solution whenever the yaw rate is
    non-negligible, so the result does not depend on how a time interval is
    subdivided.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if axle <= 0.0:
        raise ValueError("axle must be positive")
    v = 0.5 * (v_left + v_right)
    omega = (v_right - v_left) / axle
    if abs(omega) > OMEGA_STRAIGHT_EPS:
        radius = v / omega
        theta_end = pose.theta + omega * dt
        x = pose.x + radius * (math.sin(theta_end) - math.sin(pose.theta))
        y = pose.y - radius * (math.cos(theta_end) - math.cos(pose.theta))
        return Pose2D(x, y, wrap_angle(theta_end))
    x = pose.x + v * math.cos(pose.theta) * dt
    y = pose.y + v * math.sin(pose.theta) * dt
    return Pose2D(x, y, wrap_angle(pose.theta))


def unit_directions(angles: np.ndarray) -> np.ndarray:
    """(2, n): the cosine then the sine of each ray angle."""
    d = np.empty((2, angles.shape[0]))
    np.cos(angles, out=d[0])
    np.sin(angles, out=d[1])
    return d


def beam_distances(
    world: WorldModel, ox: float, oy: float, angles: np.ndarray
) -> np.ndarray:
    """Uncapped distance to the first surface along each ray angle."""
    return ray_distances(world, ox, oy, unit_directions(angles))


def ray_distances(
    world: WorldModel, ox: float, oy: float, directions: np.ndarray
) -> np.ndarray:
    """Uncapped distance to the first surface along each unit direction,
    given as ``unit_directions`` returns them.

    One slab pass covers the bounds and every rect (a ray starting inside a
    rect hits its exit face, so the container and solid rects share it), one
    pass the circles; the nearest hit is their elementwise minimum.

    Arrays are obstacle-major, (obstacles, beams). The lower and upper slab
    corners are stacked, so one subtract and one divide give every slab
    parameter; the x and y halves of the slab test and of the circle's d.f
    are then combined by one binary min, max or add each, and each family
    ends in one masked ``np.minimum.reduce`` over its obstacles. Every
    element still goes through the IEEE operations of a one-obstacle-at-a-
    time cast: the mask drops exactly the entries a per-obstacle ``where``
    chain would set to inf, and a minimum does not depend on the order of
    its operands. So the layout changes no result bit.
    """
    d = directions[:, None, :]
    # zero direction components stay finite (+-1e-300) without NaNs
    sd = np.abs(d)
    np.maximum(sd, 1e-300, out=sd)
    np.copysign(sd, d, out=sd)
    o = np.array((ox, oy)).reshape(2, 1, 1)
    ts = (world._slabs - o) / sd  # (lower/upper, x/y, slabs, beams)
    near = np.minimum(ts[0], ts[1])
    far = np.maximum(ts[0], ts[1])
    tmin = np.maximum(near[0], near[1])
    tmax = np.minimum(far[0], far[1])
    # the entry face, or the exit face from inside; a miss has tmax < tmin
    t = np.where(tmin > RAY_T_EPS, tmin, tmax)
    best = np.minimum.reduce(t, axis=0, initial=np.inf,
                             where=(t > RAY_T_EPS) & (tmax >= tmin))
    circ = world._circ
    if circ.shape[1]:
        f = circ[:2] - o
        # p(t) = o + t*d hits the circle when t^2 - 2 t (d.f) + |f|^2 - r^2 = 0
        fd = f * d
        b = fd[0] + fd[1]
        ff = f * f
        disc = b * b - ((ff[0] + ff[1]) - circ[2])
        sq = np.sqrt(np.maximum(disc, 0.0))
        t1 = b - sq
        t = np.where(t1 > RAY_T_EPS, t1, b + sq)
        np.minimum(best, np.minimum.reduce(
            t, axis=0, initial=np.inf,
            where=(t > RAY_T_EPS) & (disc >= 0.0)), out=best)
    return best


@functools.lru_cache(maxsize=32)
def beam_offsets(n_beams: int) -> np.ndarray:
    """Beam angles relative to the heading, ``(2*pi / n_beams) * i``; the
    one beam layout of every sweep. Read-only."""
    offsets = (TWO_PI / n_beams) * np.arange(n_beams)
    offsets.flags.writeable = False
    return offsets


def sector_index(bearing: float) -> int:
    """Sector of a robot-frame bearing; sector k is centered at k * (2pi/8)."""
    return int(round(bearing / (2.0 * math.pi / N_SECTORS))) % N_SECTORS


def sector_angle(index: int) -> float:
    """Robot-frame bearing of a sector center, wrapped to (-pi, pi]."""
    return wrap_angle(index * 2.0 * math.pi / N_SECTORS)


class _BeamGeometry(NamedTuple):
    """Per-beam-count geometry of the sweep reduction. ``index`` lists the
    beams grouped by sector, sectors ascending, then the front group: the
    beams within +-45 deg of the heading. ``starts`` says where each group
    begins, non-empty sectors only."""

    bearing: list[float]  # each beam's wrapped bearing relative to the heading
    index: np.ndarray
    starts: np.ndarray
    empty: tuple[int, ...]  # sectors without a beam, ascending


@functools.lru_cache(maxsize=32)
def _beam_geometry(n_beams: int) -> _BeamGeometry:
    rel = np.mod(beam_offsets(n_beams) + math.pi, 2.0 * math.pi) - math.pi
    bearing = rel.tolist()
    sector = np.array([sector_index(b) for b in bearing])
    order = np.argsort(sector, kind="stable")
    counts = np.bincount(sector, minlength=N_SECTORS)
    starts = (np.cumsum(counts) - counts)[counts > 0]
    # never empty (beam 0 lies dead ahead), as reduceat needs
    front = np.flatnonzero(np.abs(rel) <= math.pi / 4.0 + 1e-12)
    index = np.concatenate((order, front))
    starts = np.append(starts, n_beams)
    index.flags.writeable = False
    starts.flags.writeable = False
    return _BeamGeometry(bearing, index, starts,
                         tuple(np.flatnonzero(counts == 0).tolist()))


class SweepDigest(NamedTuple):
    """What the status, the summaries and the belief read of one sweep
    (``LidarScan.digest``).

    Sector 0 is centered on the heading; a sector with no beams reports
    max_range (no information reads as no return).
    """

    sector_min: tuple[float, ...]
    front_min: float        # minimum return within +-45 deg of the heading
    nearest_bearing: float  # the nearest return's bearing from the heading
    nearest_range: float    # and its range (max_range when nothing hit)


def scan(
    world: WorldModel,
    pose: Pose2D,
    n_beams: int,
    max_range: float,
    noise_std: float = 0.0,
    noise_rng: random.Random | None = None,
) -> LidarScan:
    """Full sweep from ``pose``: beam i at pose.theta + beam_offsets[i].

    Deterministic by default; optional Gaussian range noise draws from the
    supplied generator so runs stay replayable. The ranges are read-only:
    a sweep may be shared, and read after the tick that cast it.
    """
    if n_beams < 4:
        raise ValueError("n_beams must be at least 4")
    directions = unit_directions(pose.theta + beam_offsets(n_beams))
    directions.flags.writeable = False
    ranges = np.minimum(ray_distances(world, pose.x, pose.y, directions),
                        max_range)
    if noise_std > 0.0:
        if noise_rng is None:
            raise ValueError("noise_std > 0 requires a noise_rng")
        noise = np.array([noise_rng.gauss(0.0, noise_std) for _ in range(n_beams)])
        ranges = np.clip(ranges + noise, 1e-6, max_range)
    ranges.flags.writeable = False
    return LidarScan(ranges, pose, max_range, directions)


def clearance(world: WorldModel, x: float, y: float) -> float:
    """Signed distance from a point to the nearest obstacle surface or bounds
    edge; negative values are penetration depth."""
    b = world.bounds
    inner = min(x - b.x0, b.x1 - x, y - b.y0, b.y1 - y)
    if inner >= 0.0:
        best = inner
    else:
        best = -math.hypot(
            max(b.x0 - x, x - b.x1, 0.0), max(b.y0 - y, y - b.y1, 0.0)
        )
    for c in world.circles:
        best = min(best, math.hypot(x - c.cx, y - c.cy) - c.radius)
    for r in world.rects:
        qx = max(r.x0 - x, x - r.x1)
        qy = max(r.y0 - y, y - r.y1)
        if qx > 0.0 or qy > 0.0:
            d = math.hypot(max(qx, 0.0), max(qy, 0.0))
        else:
            d = max(qx, qy)  # inside: negative, distance to closest face
        best = min(best, d)
    return best


def _clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


def step_world(
    state: RobotState,
    world: WorldModel,
    cmd_v_left: float,
    cmd_v_right: float,
    dt: float,
    robot: RobotParams,
) -> tuple[RobotState, float]:
    """One physics tick: wheel speeds slew toward the command under the
    acceleration limit, the pose follows the exact arc, load reports the
    fraction of the acceleration budget consumed, and a collision latches
    once clearance drops below the body radius. Returns the new state and
    its ground-truth clearance."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    cmd_v_left = _clamp(cmd_v_left, -robot.v_wheel_max, robot.v_wheel_max)
    cmd_v_right = _clamp(cmd_v_right, -robot.v_wheel_max, robot.v_wheel_max)
    dv_max = robot.a_max * dt
    dvl = _clamp(cmd_v_left - state.v_left, -dv_max, dv_max)
    dvr = _clamp(cmd_v_right - state.v_right, -dv_max, dv_max)
    v_left = state.v_left + dvl
    v_right = state.v_right + dvr
    load = _clamp(max(abs(dvl), abs(dvr)) / dv_max, 0.0, 1.0)
    pose = step_kinematics(state.pose, v_left, v_right, robot.axle, dt)
    gap = clearance(world, pose.x, pose.y)
    collided = state.collided or gap < robot.radius
    return RobotState(
        pose=pose,
        v_left=v_left,
        v_right=v_right,
        load=load,
        collided=collided,
    ), gap


class DeviceSim:
    """Device layer: motor, lidar, encoder.

    The motor drives a wheel command for its ``duration_ticks`` steps; then
    its targets fall to zero and the wheels brake at a_max, which is the
    hold the predictive check certifies (``instinct.predict_trajectory``).

    A noise-free sweep is a pure function of the pose in an immutable world,
    so while the pose equals the ``origin`` of the last noise-free sweep,
    ``acquire_scan`` returns that sweep object itself instead of casting
    again: one sweep object per pose, and the same object means the same
    sweep, current now. With ``noise_std > 0`` every call casts and draws
    noise afresh, so every sweep is a new object. Likewise
    ``step`` keeps the ground-truth clearance it computed for the collision
    latch, and ``ground_truth_clearance`` returns it while the pose is
    unchanged.
    """

    def __init__(
        self,
        world: WorldModel,
        state: RobotState,
        robot: RobotParams,
        lidar: LidarParams,
        noise_rng: random.Random | None = None,
    ) -> None:
        self.world = world
        self.state = state
        self.robot = robot
        self.lidar = lidar
        self.noise_rng = noise_rng
        self.cmd_v_left = 0.0
        self.cmd_v_right = 0.0
        self.hold_ticks = 0  # steps the wheel command has left
        self._clearance: tuple[Pose2D | None, float] = (None, 0.0)
        self._sweep: LidarScan | None = None  # the last noise-free sweep

    def set_wheel_command(self, v_left: float, v_right: float,
                          duration_ticks: int) -> None:
        """Drive (v_left, v_right) for the next ``duration_ticks`` steps."""
        self.cmd_v_left = v_left
        self.cmd_v_right = v_right
        self.hold_ticks = duration_ticks

    def stop(self) -> None:
        self.set_wheel_command(0.0, 0.0, 0)

    def step(self, dt: float) -> RobotState:
        self.state, gap = step_world(
            self.state, self.world, self.cmd_v_left, self.cmd_v_right, dt, self.robot
        )
        self._clearance = (self.state.pose, gap)
        if self.hold_ticks > 1:
            self.hold_ticks -= 1
        else:  # the hold has run out: brake at a_max
            self.stop()
        return self.state

    def acquire_scan(self) -> LidarScan:
        pose = self.state.pose
        lidar = self.lidar
        if lidar.noise_std > 0.0:
            return scan(self.world, pose, lidar.beams, lidar.max_range,
                        lidar.noise_std, self.noise_rng)
        sweep = self._sweep
        if sweep is None or sweep.origin != pose:
            sweep = self._sweep = scan(self.world, pose, lidar.beams,
                                       lidar.max_range)
        return sweep

    def ground_truth_clearance(self) -> float:
        pose, gap = self._clearance
        if pose is not self.state.pose:
            pose = self.state.pose
            gap = clearance(self.world, pose.x, pose.y)
            self._clearance = (pose, gap)
        return gap
