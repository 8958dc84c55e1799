"""Independent brute-force validation of the predictive safety check.

The oracle re-implements the "held command then maximal braking" semantics
with its own integration at a much finer step, deliberately sharing no code
with the checker's trajectory prediction. Generated cases pit the two
against each other; disagreements are only tolerated in the conservative
direction (checker refuses, oracle approves) and inside a small clearance
band around the decision threshold where integration resolution dominates.

The integration is array code: the step times, wheel speeds, heading and
position are each one ``np.cumsum``, which adds in the same order as a loop
that steps one ``dt_fine`` at a time. It gives the same bits as that scalar
loop, which ``tests/test_oracle.py`` keeps as the frozen reference.

The distance to the belief is measured only for the points that can hold
the minimum. The whole path has one bounding box, and a point is dropped
before any ``hypot`` is taken when its gap to the box exceeds its distance
from the path's first or last sample. The verdicts are the same bits as
measuring every point; ``_obstacle_min`` gives the argument.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .config import InstinctParams, LidarParams, PHYSICS_DT, RobotParams
from .instinct import ObstacleBelief
from .messages import LowCommand, LowKind, SafetyVerdict, VerdictReason
from .world import Pose2D, WorldModel, clearance, random_world, scan

# Oracle clearances this close to d_min are attributed to integration
# resolution; see docs/boundary_band.md for the derivation.
BOUNDARY_BAND = 0.02


@dataclass(frozen=True)
class ScenarioCase:
    """One generated check case, reproducible from its seed alone."""

    seed: int
    world: WorldModel
    start: Pose2D
    command: LowCommand
    belief: ObstacleBelief


def gen_scenario(
    seed: int,
    robot: RobotParams = RobotParams(),
    lidar: LidarParams = LidarParams(),
) -> ScenarioCase:
    """Seeded case: 1-8 obstacles, a start with >= 0.5 m clearance, a belief
    scanned from that start, and a random device command."""
    rng = random.Random(seed)
    world = random_world(rng, (1, 8))
    bounds = world.bounds
    while True:
        x = rng.uniform(bounds.x0 + 0.3, bounds.x1 - 0.3)
        y = rng.uniform(bounds.y0 + 0.3, bounds.y1 - 0.3)
        if clearance(world, x, y) >= 0.5:
            break
    start = Pose2D(x, y, rng.uniform(-math.pi, math.pi))
    sweep = scan(world, start, lidar.beams, lidar.max_range)
    belief = ObstacleBelief.from_scan(sweep, 0)
    points = belief.points  # built now: a kept case holds points, not a sweep
    roll = rng.random()
    if roll < 0.10:
        command = LowCommand(1, None, LowKind.STOP_ALL)
    elif roll < 0.55 and points.shape[0]:
        # aim a forward arc near the closest return so the unsafe region is
        # actually exercised, not just sampled by luck
        deltas = points - (start.x, start.y)
        nearest = int(np.argmin(np.hypot(deltas[:, 0], deltas[:, 1])))
        bearing = math.atan2(deltas[nearest, 1], deltas[nearest, 0])
        err = bearing - start.theta + rng.uniform(-0.4, 0.4)
        err = math.atan2(math.sin(err), math.cos(err))
        v = rng.uniform(0.2, 1.0) * robot.v_wheel_max
        omega = max(-2.0, min(2.0, 2.0 * err))
        vl = v - omega * robot.axle / 2.0
        vr = v + omega * robot.axle / 2.0
        peak = max(abs(vl), abs(vr), 1e-9)
        if peak > robot.v_wheel_max:
            vl *= robot.v_wheel_max / peak
            vr *= robot.v_wheel_max / peak
        command = LowCommand(1, None, LowKind.SET_WHEELS, v_left=vl,
                             v_right=vr, duration_ticks=rng.randint(1, 200))
    else:
        command = LowCommand(
            1, None, LowKind.SET_WHEELS,
            v_left=rng.uniform(-robot.v_wheel_max, robot.v_wheel_max),
            v_right=rng.uniform(-robot.v_wheel_max, robot.v_wheel_max),
            duration_ticks=rng.randint(1, 200),
        )
    return ScenarioCase(seed=seed, world=world, start=start,
                        command=command, belief=belief)


def _times(start: float, end: float, dt: float) -> np.ndarray:
    """``start``, ``start + dt``, ``start + dt + dt``, ... added one step at a
    time (``np.cumsum`` accumulates in order, like a loop's ``t += dt``),
    long enough that the last value is at or past ``end``."""
    n = int((end - start) / dt) + 3
    while True:
        steps = np.full(n, dt)
        steps[0] = start
        times = np.cumsum(steps)
        if times[-1] >= end:
            return times
        n *= 2


def _braked(v0: float, dv: np.ndarray) -> np.ndarray:
    """A wheel's speed at the start of each braking step: ``v0``, then
    lowered by each ``dv`` towards zero and held there."""
    if v0 > 0:
        return np.maximum(np.cumsum(np.concatenate(([v0], -dv[:-1]))), 0.0)
    if v0 < 0:
        return np.minimum(np.cumsum(np.concatenate(([v0], dv[:-1]))), 0.0)
    return np.full(dv.shape[0], v0)


def _fine_path(
    start: Pose2D,
    v_left: float,
    v_right: float,
    hold_s: float,
    dt_fine: float,
    robot: RobotParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample positions (x, y), the start included, of the held command and
    the braking that follows, one per fine step up to the horizon.

    The step that crosses ``hold_s`` is clipped to land on it; each braking
    step is ``min(dt_fine, horizon - t)``; a wheel's speed drops by
    ``a_max * step`` after each braking step and stops at zero. Every step
    moves on an arc of the step's start speeds, or straight when the turn
    rate is below 1e-9 rad/s.
    """
    brake_s = max(abs(v_left), abs(v_right)) / robot.a_max
    horizon = hold_s + brake_s + 0.1
    t_end = horizon - 1e-12
    hold_t = _times(0.0, hold_s, dt_fine)
    m = int(np.searchsorted(hold_t, hold_s))  # first time at or past hold_s
    hold_steps = np.full(m, dt_fine)
    clipped = m > 0 and hold_t[m] > hold_s
    if clipped:
        hold_steps[-1] = hold_s - hold_t[m - 1]
    brake_t = _times(hold_s if clipped else float(hold_t[m]), t_end, dt_fine)
    n = int(np.searchsorted(brake_t, t_end))  # first time at or past t_end
    brake_steps = np.minimum(dt_fine, horizon - brake_t[:n])
    dv = robot.a_max * brake_steps
    steps = np.concatenate((hold_steps, brake_steps))
    vl = np.concatenate((np.full(m, v_left), _braked(v_left, dv)))
    vr = np.concatenate((np.full(m, v_right), _braked(v_right, dv)))
    v = 0.5 * (vl + vr)
    omega = (vr - vl) / robot.axle
    arc = np.abs(omega) > 1e-9
    # a straight step leaves the heading alone; adding -0.0 is exact for
    # every float, +0.0 would turn a heading of -0.0 into 0.0
    th = np.cumsum(np.concatenate(([start.theta],
                                   np.where(arc, omega * steps, -0.0))))
    sin, cos = np.sin(th), np.cos(th)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = v / omega  # inf or nan where omega is ~0; np.where drops those
        dx = np.where(arc, r * (sin[1:] - sin[:-1]), v * cos[:-1] * steps)
        dy = np.where(arc, -(r * (cos[1:] - cos[:-1])), v * sin[:-1] * steps)
    px = np.cumsum(np.concatenate(([start.x], dx)))
    py = np.cumsum(np.concatenate(([start.y], dy)))
    return px, py


def _box_gaps(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Squared gaps from each value in ``p`` to the span of ``s``; zero
    inside the span."""
    g = np.maximum(s.min() - p, p - s.max())
    np.maximum(g, 0.0, out=g)
    g *= g
    return g


def _obstacle_min(px: np.ndarray, py: np.ndarray, points: np.ndarray) -> float:
    """Least ``hypot`` from any sample to any belief point.

    ``hypot`` is taken against every sample only for the points that can
    hold the least. The squares from the path's first and last samples
    give ``u2``; a point is kept if its squared gap to the bounding box of
    the whole path is within ``max(u2 * (1 + 1e-6), 1e-300)``. Two facts
    make this the same float as ``hypot`` over every pair. A point's squared
    box gap is no larger than its computed square to any sample: each
    coordinate gap is no larger than the sample's, and rounding is
    monotone. A pair whose ``hypot`` ties or beats every other pair's has a
    square within a few 1e-16 of the least square, and so of ``u2`` or
    less: a square carries a relative rounding error of a few 1e-16 and
    ``hypot`` one ulp. So that pair's point is kept; the relative 1e-6 is
    spare. The 1e-300 floor keeps it where squares underflow (distances
    below 1e-150 m): an underflowed ``u2`` of 0 could otherwise drop a
    point whose square is a subnormal yet whose ``hypot`` is the least.
    """
    ends = points[:, None] - ((px[0], py[0]), (px[-1], py[-1]))  # (K, 2, xy)
    ends *= ends
    u2 = float((ends[..., 0] + ends[..., 1]).min())
    kept = points[_box_gaps(points[:, 0], px) + _box_gaps(points[:, 1], py)
                  <= max(u2 * (1.0 + 1e-6), 1e-300)]
    return float(np.min(np.hypot(px - kept[:, :1], py - kept[:, 1:])))


def oracle_safety(
    case: ScenarioCase,
    dt_fine: float = 0.002,
    robot: RobotParams = RobotParams(),
    params: InstinctParams = InstinctParams(),
    physics_dt: float = PHYSICS_DT,
) -> SafetyVerdict:
    """Authoritative fine-grained verdict for a case.

    Same horizon semantics as the production check (command held for its
    duration, then both wheels braked at a_max, plus a 0.1 s margin) but
    integrated independently at dt_fine.

    Raises ValueError on a non-finite wheel speed, whose braking horizon has
    no end, and on a ``dt_fine`` that is not positive.
    """
    low = case.command
    if low.kind is not LowKind.SET_WHEELS:
        return SafetyVerdict(True, math.inf, VerdictReason.OK)
    if not (math.isfinite(low.v_left) and math.isfinite(low.v_right)):
        raise ValueError(
            f"non-finite wheel speed: ({low.v_left}, {low.v_right})")
    if not dt_fine > 0:
        raise ValueError(f"dt_fine must be positive, got {dt_fine}")
    px, py = _fine_path(case.start, low.v_left, low.v_right,
                        low.duration_ticks * physics_dt, dt_fine, robot)
    points = case.belief.points
    if points.shape[0]:
        obstacle_min = _obstacle_min(px, py, points) - robot.radius
    else:
        obstacle_min = math.inf
    b = case.world.bounds
    # subtraction is monotone, so the extremes give the per-sample minimum
    inner = min(float(px.min()) - b.x0, b.x1 - float(px.max()),
                float(py.min()) - b.y0, b.y1 - float(py.max()))
    bounds_min = inner - robot.radius
    predicted = min(obstacle_min, bounds_min)
    if predicted >= params.d_min:
        return SafetyVerdict(True, predicted, VerdictReason.OK)
    reason = (VerdictReason.OBSTACLE_PREDICTED if obstacle_min <= bounds_min
              else VerdictReason.OUT_OF_BOUNDS)
    return SafetyVerdict(False, predicted, reason)


@dataclass
class AgreementReport:
    """Checker-vs-oracle tally; total = agreements + mismatches + excluded."""

    total: int = 0
    agreements: int = 0
    mismatches: list[int] = field(default_factory=list)  # case seeds
    excluded_boundary: int = 0
    false_approvals: int = 0   # checker safe, oracle unsafe: hard failure
    false_refusals: int = 0    # checker unsafe, oracle safe: conservatism

    def to_text(self) -> str:
        return (
            f"agreement: {self.agreements}/{self.total} "
            f"(boundary-excluded {self.excluded_boundary}, "
            f"false approvals {self.false_approvals}, "
            f"false refusals {self.false_refusals})"
        )


def agreement_report(
    cases: list[ScenarioCase],
    checker_verdicts: list[SafetyVerdict],
    oracle_verdicts: list[SafetyVerdict],
    d_min: float = InstinctParams().d_min,
    band: float = BOUNDARY_BAND,
) -> AgreementReport:
    """Compare safe flags case by case.

    Cases whose oracle clearance sits within ``band`` of d_min are excluded:
    there the two integration resolutions may legitimately land on opposite
    sides of the threshold.
    """
    if not (len(cases) == len(checker_verdicts) == len(oracle_verdicts)):
        raise ValueError("verdict lists must match the case list in length")
    report = AgreementReport(total=len(cases))
    for case, checker, oracle in zip(cases, checker_verdicts, oracle_verdicts):
        if abs(oracle.predicted_min_clearance - d_min) < band:
            report.excluded_boundary += 1
            continue
        if checker.safe == oracle.safe:
            report.agreements += 1
            continue
        report.mismatches.append(case.seed)
        if checker.safe:
            report.false_approvals += 1
        else:
            report.false_refusals += 1
    return report
