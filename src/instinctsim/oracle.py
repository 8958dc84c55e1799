"""Independent brute-force validation of the predictive safety check.

The oracle re-implements the "held command then maximal braking" semantics
with its own integration loop at a much finer step, deliberately sharing no
code with the checker's trajectory prediction. Generated cases pit the two
against each other; disagreements are only tolerated in the conservative
direction (checker refuses, oracle approves) and inside a small clearance
band around the decision threshold where integration resolution dominates.
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
    sweep = scan(world, start, lidar.beams, lidar.max_range, tick=0)
    belief = ObstacleBelief.from_scan(sweep, start.x, start.y)
    roll = rng.random()
    if roll < 0.05:
        command = LowCommand(1, None, LowKind.STOP_ALL)
    elif roll < 0.10:
        command = LowCommand(1, None, LowKind.ACQUIRE_SCAN)
    elif roll < 0.55 and belief.points.shape[0]:
        # aim a forward arc near the closest return so the unsafe region is
        # actually exercised, not just sampled by luck
        deltas = belief.points - (start.x, start.y)
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
    integrated with an independent loop at dt_fine.
    """
    low = case.command
    if low.kind is not LowKind.SET_WHEELS:
        return SafetyVerdict(True, math.inf, VerdictReason.OK)
    hold_s = low.duration_ticks * physics_dt
    brake_s = max(abs(low.v_left), abs(low.v_right)) / robot.a_max
    horizon = hold_s + brake_s + 0.1
    x, y, th = case.start.x, case.start.y, case.start.theta
    vl, vr = low.v_left, low.v_right
    xs = [x]
    ys = [y]
    t = 0.0
    while t < horizon - 1e-12:
        step = min(dt_fine, horizon - t)
        clipped = t < hold_s < t + step
        if clipped:
            step = hold_s - t
        braking = t >= hold_s
        v = 0.5 * (vl + vr)
        omega = (vr - vl) / robot.axle
        if abs(omega) > 1e-9:
            th_next = th + omega * step
            r = v / omega
            x += r * (math.sin(th_next) - math.sin(th))
            y -= r * (math.cos(th_next) - math.cos(th))
            th = th_next
        else:
            x += v * math.cos(th) * step
            y += v * math.sin(th) * step
        xs.append(x)
        ys.append(y)
        if braking:
            dv = robot.a_max * step
            if vl > 0:
                vl = max(0.0, vl - dv)
            elif vl < 0:
                vl = min(0.0, vl + dv)
            if vr > 0:
                vr = max(0.0, vr - dv)
            elif vr < 0:
                vr = min(0.0, vr + dv)
        t = hold_s if clipped else t + step
    px = np.array(xs)
    py = np.array(ys)
    points = case.belief.points
    if points.shape[0]:
        dx = px[:, None] - points[None, :, 0]
        dy = py[:, None] - points[None, :, 1]
        obstacle_min = float(np.min(np.hypot(dx, dy))) - robot.radius
    else:
        obstacle_min = math.inf
    b = case.world.bounds
    inner = np.minimum(np.minimum(px - b.x0, b.x1 - px),
                       np.minimum(py - b.y0, b.y1 - py))
    bounds_min = float(inner.min()) - robot.radius
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
