"""The always-on safety layer: survival tasks first, vetted commands second.

Every tick runs the same fixed sequence: acquire sensors, judge device
status, handle the unsafe case (safe mode) or run the survival governor and
roaming, then translate at most one active high command into a one-tick
device primitive that must pass the predictive safety check before the motor
sees it. Every primitive so vetted, a roaming arc or a command's step, leaves
exactly one ``verdict`` event. The device drives an executed primitive for
its ``duration_ticks`` and then brakes (``DeviceSim``), which is the motion
the check predicted, so a tick that executes nothing needs no stop of its
own. Feedback and a summarized sensor view go back to the agent every tick.
The layer never blocks on the agent and keeps working if the agent is gone
entirely. The safe-mode latch is the controller's own state
(``InstinctController.mode``); the device never reads it.

Most motions are approved without predicting their trajectory. A travel
bound L caps how far any predicted sample can lie from the pose
(``travel_bound``, derived in ``docs/travel_bound.md``). At the pose the
belief was built at, the nearest belief point lies at the scan's reach. When
that reach and the bounds margin keep d_min + radius + L plus a rounding
margin, the command is approved with that lower bound as its clearance, and
the verdict says so (``"bound": "disc"``). Every other motion is predicted
and measured in full, so each verdict's safe flag and reason are those of
the full check.

Perception is computed once per sweep, and only as far as it is read.
There is one sweep object per pose: while the robot stands still a
noise-free device hands back the sweep it last cast (``DeviceSim``), and
that object is current. The sweep owns what is derived from it, built on
first read and shared by every reader: its ``digest`` (the sector minima,
the front minimum and the nearest return, whose range is also the
belief's reach) and its ``hits``. The controller reads a sweep only
through ``front_min_range``, ``summarize`` and ``ObstacleBelief.from_scan``.
Each tick builds one summary once its mode is settled; roaming reads it
and the tick sends it last. It is in the frame the sweep was cast in, with
the device's current load, the layer's own mode and the tick. Each tick
builds a small belief stamped with its own tick; only the full predictive
check reads its points, so a tick whose motions the travel bound approves
never builds them. Where a sweep was cast and how its beams lie is the
sweep's own (``LidarScan.origin``, ``world.beam_offsets``), so the belief
lands where its sweep was cast, whatever the pose is now. Sweeps, their
digests and their hits are read-only, because they are shared and read
after the tick that cast them.

The per-tick kernels keep NumPy calls few and give bit-identical results
to their straightforward forms (frozen in
``tests/test_perception_equivalence.py``): a minimum is exact in any
order, and the belief points are written into one preallocated array with
the same multiply and add per coordinate, from the unit directions the ray
cast already computed (``LidarScan.directions``).
``predict_trajectory`` runs a hold loop, where v, omega and the arc radius
are computed once because the wheel speeds do not change, then a braking
loop; each sample takes the same operations in the same order as one loop
recomputing everything per step.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .bus import Channel
from .config import InstinctParams, RobotParams
from .messages import (
    Feedback,
    FeedbackStatus,
    HighCommand,
    HighKind,
    LowCommand,
    LowKind,
    MAX_QUEUED_COMMANDS,
    MalformedCommandError,
    Mode,
    SafetyVerdict,
    ScanSummary,
    VerdictReason,
)
from .trace import TraceRecorder
from .world import (
    OMEGA_STRAIGHT_EPS,
    DeviceSim,
    LidarScan,
    Pose2D,
    Rect,
    RobotState,
    sector_angle,
    wrap_angle,
)


def summarize(scan: LidarScan, state: RobotState, mode: Mode,
              tick: int) -> ScanSummary:
    """The eight-sector digest the agent plans from (``LidarScan.digest``),
    in the frame the sweep was cast in (its origin), with ``state``'s load,
    ``mode`` and ``tick``. The one builder of a sweep's ``ScanSummary``."""
    d = scan.digest
    return ScanSummary(d.sector_min, scan.max_range, d.nearest_bearing,
                       d.nearest_range, scan.origin, state.load, mode, tick)


def front_min_range(scan: LidarScan) -> float:
    """Minimum return within +-45 degrees of the heading."""
    return scan.digest.front_min


class ObstacleBelief:
    """World knowledge of the safety layer: the latest scan's hit endpoints.

    The layer never sees ground truth; these points (plus the configured
    bounds) are all the predictive check may consult. Memoryless per scan.
    A belief built from a scan also keeps the (x, y) of the scan's origin
    and its nearest hit range (inf without hits): from that origin, the
    nearest point lies at that range up to rounding.

    ``points`` are given as an array, or as the sweep whose ``hits`` they
    are, read on first use and the sweep then dropped: only the full
    predictive check reads them, so a motion the travel bound approves
    never pays for them. The hits are built once per sweep, on the sweep
    (``LidarScan.hits``), so every belief of one sweep, whatever tick it
    is stamped with, shares them.
    """

    __slots__ = ("_points", "built_tick", "origin", "reach")

    def __init__(self, points: np.ndarray | LidarScan, built_tick: int,
                 origin: tuple[float, float] | None = None,
                 reach: float = math.inf) -> None:
        self._points = points  # (K, 2) world-frame endpoints of beams that hit
        self.built_tick = built_tick
        self.origin = origin
        self.reach = reach

    @property
    def points(self) -> np.ndarray:
        p = self._points
        if isinstance(p, LidarScan):
            p = self._points = p.hits
        return p

    @classmethod
    def from_scan(cls, scan: LidarScan, tick: int) -> "ObstacleBelief":
        """The belief of a sweep read at ``tick``, at the sweep's origin;
        its reach is the sweep's nearest return (``LidarScan.digest``)."""
        nearest = scan.digest.nearest_range
        reach = math.inf if nearest >= scan.max_range else nearest
        return cls(scan, tick, (scan.origin.x, scan.origin.y), reach)


def predict_trajectory(
    pose: Pose2D,
    v_left: float,
    v_right: float,
    hold_s: float,
    robot: RobotParams,
    dt_pred: float,
) -> np.ndarray:
    """Sample (x, y) along "command held, then maximal braking".

    Wheel speeds are held for hold_s, then both decay toward zero at a_max.
    Each substep advances with the speeds at its start, so coarser steps
    brake later and predict slightly farther travel: discretization errs on
    the conservative side.

    Two loops, one per phase. While holding, v, omega and the arc radius are
    fixed, so they are computed once; the last hold step is shortened to
    land exactly on hold_s. While braking, each step ends by taking a_max *
    step off each wheel's speed, or zeroing a wheel slower than that. The
    floating-point operations per sample are those of a single loop that
    recomputes everything every step.

    Raises ValueError on a non-finite wheel speed: its braking horizon
    has no end.
    """
    if not (math.isfinite(v_left) and math.isfinite(v_right)):
        raise ValueError(f"non-finite wheel speed: ({v_left}, {v_right})")
    sin, cos = math.sin, math.cos
    axle = robot.axle
    a_max = robot.a_max
    brake_s = max(abs(v_left), abs(v_right)) / a_max
    horizon = hold_s + brake_s + 0.1
    t_end = horizon - 1e-12
    x, y, th = pose.x, pose.y, pose.theta
    s_th, c_th = sin(th), cos(th)  # always sin/cos of the current th
    xs = [x]
    ys = [y]
    t = 0.0
    # hold phase: the horizon lies at least 0.1 s past hold_s, so only
    # hold_s can clip a step here
    v = 0.5 * (v_left + v_right)
    omega = (v_right - v_left) / axle
    arc = abs(omega) > OMEGA_STRAIGHT_EPS
    radius = v / omega if arc else 0.0
    while t < hold_s:
        t_next = t + dt_pred
        if hold_s < t_next:
            step = hold_s - t
            t_next = hold_s
        else:
            step = dt_pred
        if arc:
            th += omega * step
            s_end, c_end = sin(th), cos(th)
            x += radius * (s_end - s_th)
            y -= radius * (c_end - c_th)
            s_th, c_th = s_end, c_end
        else:
            x += v * c_th * step
            y += v * s_th * step
        xs.append(x)
        ys.append(y)
        t = t_next
    vl, vr = v_left, v_right
    while t < t_end:
        step = horizon - t
        if dt_pred < step:
            step = dt_pred
        v = 0.5 * (vl + vr)
        omega = (vr - vl) / axle
        if abs(omega) > OMEGA_STRAIGHT_EPS:
            th_end = th + omega * step
            radius = v / omega
            s_end, c_end = sin(th_end), cos(th_end)
            x += radius * (s_end - s_th)
            y -= radius * (c_end - c_th)
            th, s_th, c_th = th_end, s_end, c_end
        else:
            x += v * c_th * step
            y += v * s_th * step
        xs.append(x)
        ys.append(y)
        dv = a_max * step
        if vl > dv:
            vl -= dv
        elif vl < -dv:
            vl += dv
        elif vl:
            vl = 0.0
        if vr > dv:
            vr -= dv
        elif vr < -dv:
            vr += dv
        elif vr:
            vr = 0.0
        t += step
    out = np.empty((len(xs), 2))
    out[:, 0] = xs
    out[:, 1] = ys
    return out


def _trajectory_clearances(
    samples: np.ndarray, points: np.ndarray, bounds: Rect, radius: float
) -> tuple[float, float]:
    """Body clearance minima along a trajectory: to belief points (obstacle
    surfaces inflated by the robot radius) and to the bounds geofence.

    sqrt is monotone and correctly rounded, so the root of the least squared
    distance equals the least distance; likewise the bounds margins are
    taken from the extreme sample coordinates.
    """
    xs = samples[:, 0]
    ys = samples[:, 1]
    if points.shape[0]:
        dx = xs[:, None] - points[None, :, 0]
        dy = ys[:, None] - points[None, :, 1]
        obstacle_min = math.sqrt((dx * dx + dy * dy).min()) - radius
    else:
        obstacle_min = math.inf
    inner = min(float(xs.min()) - bounds.x0, bounds.x1 - float(xs.max()),
                float(ys.min()) - bounds.y0, bounds.y1 - float(ys.max()))
    bounds_min = inner - radius
    return obstacle_min, bounds_min


# Unit roundoff of a float64 operation.
_UNIT_ROUNDOFF = 2.0 ** -53


def travel_bound(v_left: float, v_right: float, hold_s: float,
                 robot: RobotParams, dt_pred: float) -> float:
    """L: how far from its pose any sample of ``predict_trajectory`` lies,
    in exact arithmetic (``docs/travel_bound.md`` derives it).

    The hold moves at most |v| * hold_s. Braking never raises |v| and
    stops within v_m / a_max + dt_pred, and its speed is at most the
    faster wheel's staircase, whose travel is at most
    v_m * dt_pred + v_m**2 / (2 a_max).
    """
    v = abs(0.5 * (v_left + v_right))
    v_m = max(abs(v_left), abs(v_right))
    a_max = robot.a_max
    return v * hold_s + min(v * (v_m / a_max + dt_pred),
                            v_m * dt_pred + v_m * v_m / (2.0 * a_max))


def _disc_verdict(
    pose: Pose2D,
    v_left: float,
    v_right: float,
    hold_s: float,
    belief: ObstacleBelief,
    bounds: Rect,
    robot: RobotParams,
    params: InstinctParams,
) -> SafetyVerdict | None:
    """Approve a motion whose whole prediction stays in a disc that keeps
    d_min of body clearance, or return None for the full check.

    Every sample lies within L (``travel_bound``) of the pose, so no sample
    is nearer a belief point, or the bounds, than the pose's own distance
    minus L. That distance is read as the reach of a belief built at this
    pose; any other belief gets None. ``eps`` covers rounding in the
    samples and in the distances (``docs/travel_bound.md``). The verdict
    reports that certified lower bound, which is at most the full check's
    clearance. A non-finite pose makes ``eps`` NaN or inf, so it never
    approves.
    """
    x, y = pose.x, pose.y
    if belief.origin != (x, y):
        return None
    dt_pred = params.dt_pred
    length = travel_bound(v_left, v_right, hold_s, robot, dt_pred)
    m = min(x - bounds.x0, bounds.x1 - x, y - bounds.y0, bounds.y1 - y)
    floor = params.d_min + robot.radius + length
    if not m >= floor:
        return None
    m = min(belief.reach, m)  # the reach goes first, so a NaN one is returned
    if not m >= floor:
        return None
    v_m = max(abs(v_left), abs(v_right))
    axle = robot.axle
    horizon = hold_s + v_m / robot.a_max + 0.1
    steps = horizon / dt_pred + 6.0
    # the largest arc radius: axle / 2 unless both wheels turn the same
    # way, where the wheel difference sets it (it drifts by rounding only);
    # a yaw rate at or below OMEGA_STRAIGHT_EPS is integrated as a straight
    # line, so an arc's radius is below |v| / OMEGA_STRAIGHT_EPS
    spread = abs(v_right - v_left)
    drift = 2.0 * steps * _UNIT_ROUNDOFF * v_m
    arc = 0.5 * axle
    spread_min = 0.5 * OMEGA_STRAIGHT_EPS * axle
    if spread + drift >= spread_min:
        arc += v_m * axle / max(spread - drift, spread_min)
    turn = abs(pose.theta) + 2.0 * v_m * horizon / axle + 8.0
    eps = 8.0 * _UNIT_ROUNDOFF * steps * (
        abs(x) + abs(y) + m + length + v_m * horizon + robot.radius + 1.0
        + arc * turn)
    lower = m - robot.radius - length - eps
    if not lower >= params.d_min:
        return None
    return SafetyVerdict(True, lower, VerdictReason.OK, bound="disc")


def safety_check(
    low: LowCommand,
    pose: Pose2D,
    belief: ObstacleBelief | None,
    bounds: Rect,
    robot: RobotParams,
    params: InstinctParams,
    now: int,
    physics_dt: float,
) -> SafetyVerdict:
    """Predictive vetting of a device primitive against the belief.

    STOP_ALL introduces no motion and is always safe (its clearance reports
    +inf, keeping the safe <=> clearance >= d_min pairing intact).
    SET_WHEELS passes when its travel bound certifies d_min of body
    clearance (``_disc_verdict``); otherwise it is forward-simulated for its
    duration plus worst-case braking plus a 0.1 s margin, and passes only
    when every sample keeps at least d_min of body clearance. A stale or
    missing belief makes every motion command unsafe, conservatively, and
    so does a wheel speed that is not a number within the wheel limit.
    """
    if low.kind is not LowKind.SET_WHEELS:
        return SafetyVerdict(True, math.inf, VerdictReason.OK)
    if belief is None or now - belief.built_tick > params.stale_limit:
        return SafetyVerdict(False, -math.inf, VerdictReason.LIMIT_EXCEEDED)
    limit = robot.v_wheel_max + 1e-9
    if not (abs(low.v_left) <= limit and abs(low.v_right) <= limit):  # NaN too
        return SafetyVerdict(False, -math.inf, VerdictReason.LIMIT_EXCEEDED)
    hold_s = low.duration_ticks * physics_dt
    fast = _disc_verdict(pose, low.v_left, low.v_right, hold_s, belief,
                         bounds, robot, params)
    if fast is not None:
        return fast
    samples = predict_trajectory(pose, low.v_left, low.v_right, hold_s,
                                 robot, params.dt_pred)
    obstacle_min, bounds_min = _trajectory_clearances(
        samples, belief.points, bounds, robot.radius
    )
    predicted = min(obstacle_min, bounds_min)
    if predicted >= params.d_min:
        return SafetyVerdict(True, predicted, VerdictReason.OK)
    reason = (
        VerdictReason.OBSTACLE_PREDICTED
        if obstacle_min <= bounds_min
        else VerdictReason.OUT_OF_BOUNDS
    )
    return SafetyVerdict(False, predicted, reason)


def _mix(v: float, omega: float, robot: RobotParams) -> tuple[float, float]:
    """Differential-drive mixing of (v, omega) into wheel speeds, jointly
    scaled down so the faster wheel stays within the wheel limit."""
    v_left = v - omega * robot.axle / 2.0
    v_right = v + omega * robot.axle / 2.0
    peak = max(abs(v_left), abs(v_right))
    if peak > robot.v_wheel_max:
        scale = robot.v_wheel_max / peak
        v_left *= scale
        v_right *= scale
    return v_left, v_right


def _steer(pose: Pose2D, tx: float, ty: float, v_cap: float,
           robot: RobotParams, params: InstinctParams) -> tuple[float, float]:
    """Proportional heading/distance law -> wheel speeds. Translation only
    engages once roughly facing the goal."""
    heading_err = wrap_angle(math.atan2(ty - pose.y, tx - pose.x) - pose.theta)
    dist = math.hypot(tx - pose.x, ty - pose.y)
    omega = max(-params.omega_max, min(params.omega_max, params.k_theta * heading_err))
    if abs(heading_err) < math.pi / 4.0:
        v = max(0.0, min(params.k_d * dist, v_cap))
    else:
        v = 0.0
    return _mix(v, omega, robot)


def convert(
    cmd: HighCommand,
    pose: Pose2D,
    robot: RobotParams,
    params: InstinctParams,
    waypoint_idx: int = 0,
) -> tuple[tuple[LowKind, float, float] | None, bool, int]:
    """Closed-loop per-tick translation of one high command.

    Returns (intent, done, next_waypoint_idx) where intent is a
    (LowKind, v_left, v_right) primitive (wheel speeds 0.0 for STOP_ALL) or
    None. Called once per tick until done, so each emitted primitive covers
    a single tick and the safety horizon stays tight.
    """
    kind = cmd.kind
    if kind is HighKind.STOP:
        return (LowKind.STOP_ALL, 0.0, 0.0), True, waypoint_idx
    if kind is HighKind.ROTATE_TO:
        err = wrap_angle(cmd.theta - pose.theta)
        if abs(err) <= params.eps_heading:
            return None, True, waypoint_idx
        omega = max(-params.omega_max,
                    min(params.omega_max, params.k_theta * err))
        vl, vr = _mix(0.0, omega, robot)
        return (LowKind.SET_WHEELS, vl, vr), False, waypoint_idx
    # MOVE_TO and FOLLOW_PATH: steer to each route point in order
    while waypoint_idx < len(cmd.route):
        tx, ty = cmd.route[waypoint_idx]
        if math.hypot(tx - pose.x, ty - pose.y) <= params.eps_pos:
            waypoint_idx += 1
            continue
        v_cap = cmd.speed if cmd.speed is not None else robot.v_wheel_max
        vl, vr = _steer(pose, tx, ty, v_cap, robot, params)
        return (LowKind.SET_WHEELS, vl, vr), False, waypoint_idx
    return None, True, waypoint_idx


def roam_intent(
    summary: ScanSummary,
    rng: random.Random,
    robot: RobotParams,
    params: InstinctParams,
) -> tuple[float, float]:
    """Seeded random arc biased away from the nearest occupied sector."""
    occupied = summary.occupied()
    if occupied:
        nearest = min(occupied, key=lambda k: summary.sector_min[k])
        away = wrap_angle(sector_angle(nearest) + math.pi)
        omega = params.k_theta * away + rng.uniform(-0.5, 0.5)
        v = rng.uniform(0.4, 0.8) * robot.v_wheel_max
        if abs(away) > math.pi / 2.0:
            v *= 0.25  # clear direction is behind: mostly turn in place
    else:
        omega = rng.uniform(-0.8, 0.8)
        v = 0.6 * robot.v_wheel_max
    omega = max(-params.omega_max, min(params.omega_max, omega))
    return _mix(v, omega, robot)


@dataclass
class _ActiveCommand:
    cmd: HighCommand
    waypoint_idx: int = 0


class InstinctController:
    """Owner of the device interface; runs the fixed per-tick sequence."""

    def __init__(
        self,
        device: DeviceSim,
        command_channel: Channel,
        feedback_channel: Channel,
        data_channel: Channel,
        recorder: TraceRecorder,
        params: InstinctParams,
        physics_dt: float,
        roam_rng: random.Random,
    ) -> None:
        self.device = device
        self.command_channel = command_channel
        self.feedback_channel = feedback_channel
        self.data_channel = data_channel
        self.recorder = recorder
        self.params = params
        self.physics_dt = physics_dt
        self.roam_rng = roam_rng
        self.belief: ObstacleBelief | None = None
        self.active: _ActiveCommand | None = None
        self.queue: deque[HighCommand] = deque()
        self.mode = Mode.NORMAL  # the safe-mode latch
        self.overload_ticks = 0
        self.safe_streak = 0
        self._low_ids = itertools.count(1)

    # -- helpers ----------------------------------------------------------

    def _send_feedback(self, fb: Feedback) -> None:
        self.recorder.emit("INSTINCT", "feedback", fb.to_payload())
        self.feedback_channel.transmit(fb, fb.tick)

    def device_status(self, state: RobotState, front_min: float
                      ) -> tuple[bool, str]:
        """Survival-level health: obstacle proximity, sustained overload, or
        a latched collision make the device unsafe."""
        if state.collided:
            return False, "COLLIDED"
        if front_min < self.params.d_stop:
            return False, "OBSTACLE_PROXIMITY"
        if self.overload_ticks >= self.params.overload_window:
            return False, "OVERLOAD"
        return True, "OK"

    def governor_scale(self, front_min: float) -> float:
        """Linear speed multiplier in the reactive band [d_stop, d_slow)."""
        p = self.params
        if front_min >= p.d_slow:
            return 1.0
        if front_min < p.d_stop:
            return 0.0
        return (front_min - p.d_stop) / (p.d_slow - p.d_stop)

    # -- safe mode ---------------------------------------------------------

    def enter_safe_mode(self, now: int, reason: str) -> None:
        """Zero the motors, terminate all pending commands, latch SAFE mode.

        Idempotent: re-entry on consecutive unsafe ticks only resets the
        exit hold timer.
        """
        if self.mode is not Mode.SAFE:
            self.mode = Mode.SAFE
            self.recorder.emit("INSTINCT", "safe_mode_entered",
                               {"reason": reason})
        self.safe_streak = 0
        self.device.stop()
        pending = [] if self.active is None else [self.active.cmd]
        pending.extend(self.queue)
        self.active = None
        self.queue.clear()
        for cmd in pending:
            self._send_feedback(Feedback(cmd.id, FeedbackStatus.SAFE_MODE,
                                         "SAFE_MODE", now))

    # -- command intake ----------------------------------------------------

    def _poll_commands(self, now: int, holding: bool) -> None:
        """Validate every command due now. A malformed one is refused; a
        valid one is queued, answered SAFE_MODE while safe mode holds, or
        refused QUEUE_FULL when ``MAX_QUEUED_COMMANDS`` already wait."""
        for cmd in self.command_channel.poll(now):
            try:
                cmd.validate(self.device.robot.v_wheel_max)
            except MalformedCommandError as exc:
                self.recorder.emit("INSTINCT", "command_malformed",
                                   {"id": cmd.id, "reason": str(exc)})
                self._send_feedback(Feedback(cmd.id, FeedbackStatus.REFUSED,
                                             "MALFORMED", now))
                continue
            self.recorder.emit("INSTINCT", "command_received",
                               cmd.to_payload())
            if holding:
                status, reason = FeedbackStatus.SAFE_MODE, "SAFE_MODE"
            elif len(self.queue) >= MAX_QUEUED_COMMANDS:
                status, reason = FeedbackStatus.REFUSED, "QUEUE_FULL"
            else:
                self.queue.append(cmd)
                status, reason = FeedbackStatus.ACCEPTED, "QUEUED"
            self._send_feedback(Feedback(cmd.id, status, reason, now))

    def _vet(self, parent_id: int | None, kind: LowKind, v_left: float,
             v_right: float, now: int) -> SafetyVerdict:
        """Number one primitive, check it, trace its verdict, and execute it
        only if safe; an unsafe one never reaches the device."""
        low = LowCommand(next(self._low_ids), parent_id, kind, v_left, v_right)
        device = self.device
        verdict = safety_check(low, device.state.pose, self.belief,
                               device.world.bounds, device.robot, self.params,
                               now, self.physics_dt)
        parent = "SURVIVAL" if parent_id is None else parent_id
        self.recorder.emit("INSTINCT", "verdict", {"low_id": low.id,
                                                   "parent_id": parent,
                                                   **verdict.to_payload()})
        if not verdict.safe:
            return verdict
        if kind is LowKind.SET_WHEELS:
            device.set_wheel_command(v_left, v_right, low.duration_ticks)
            self.recorder.emit("DEVICE", "exec_wheels", {
                "low_id": low.id, "parent_id": parent,
                "v_left": v_left, "v_right": v_right,
                "duration_ticks": low.duration_ticks,
            })
        else:  # STOP_ALL
            device.stop()
            self.recorder.emit("DEVICE", "exec_stop", {"low_id": low.id,
                                                       "parent_id": parent})
        return verdict

    # -- the tick ----------------------------------------------------------

    def tick(self, now: int) -> None:
        """One pass of the fixed loop; see the module docstring for order."""
        self.recorder.begin_tick(now)  # no-op when the runner already did
        # (1) acquire sweep + state; build this tick's belief, stamped now,
        # at the sweep's origin. It shares the sweep's digest and hits with
        # every belief of the same sweep object (the robot standing still).
        scan = self.device.acquire_scan()
        state = self.device.state
        self.belief = ObstacleBelief.from_scan(scan, now)
        front_min = front_min_range(scan)
        if state.load >= self.params.overload_threshold:
            self.overload_ticks += 1
        else:
            self.overload_ticks = 0

        # (2) device status
        safe, reason = self.device_status(state, front_min)
        self.recorder.emit("INSTINCT", "status", {
            "safe": safe, "reason": reason, "mode": self.mode.value,
            "front_min": front_min,
        })
        acting = safe and self.mode is Mode.NORMAL
        if not safe:
            # (3) unsafe: safe mode, feedback, skip command handling
            self.enter_safe_mode(now, reason)
            self._send_feedback(Feedback(None, FeedbackStatus.SAFE_MODE,
                                         reason, now))
        elif not acting:
            # holding period: stay stopped until safe long enough
            self.safe_streak += 1
            if self.safe_streak >= self.params.safe_hold_ticks:
                self.mode = Mode.NORMAL
                self.recorder.emit("INSTINCT", "safe_mode_exited", {})
            self._poll_commands(now, holding=True)
        # the tick's one summary, with the mode safe-mode handling settled
        summary = summarize(scan, state, self.mode, now)

        if acting:
            # (4) survival tasks: speed governor and idle roaming
            scale = self.governor_scale(front_min)
            if scale < 1.0:
                self.recorder.emit("INSTINCT", "governor",
                                   {"scale": scale, "front_min": front_min})
            if self.params.roaming and self.active is None and not self.queue:
                vl, vr = roam_intent(summary, self.roam_rng,
                                     self.device.robot, self.params)
                self._vet(None, LowKind.SET_WHEELS, vl * scale, vr * scale,
                          now)

            # (5) poll high commands; adopt the next one FIFO
            self._poll_commands(now, holding=False)
            if self.active is None and self.queue:
                self.active = _ActiveCommand(self.queue.popleft())

            # (6) convert + vet: execute if safe, else refuse the command
            if self.active is not None:
                self._drive_active(state, scale, now)

        # (7) summarized data every tick, last: a dropped one is traced
        self.data_channel.transmit(summary, now)

    def _drive_active(self, state: RobotState, scale: float, now: int) -> None:
        active = self.active
        intent, done, active.waypoint_idx = convert(
            active.cmd, state.pose, self.device.robot, self.params,
            active.waypoint_idx,
        )
        if intent is not None:  # None only once done
            kind, vl, vr = intent
            verdict = self._vet(active.cmd.id, kind, vl * scale, vr * scale,
                                now)
            if not verdict.safe:
                self._send_feedback(Feedback(
                    active.cmd.id, FeedbackStatus.REFUSED,
                    verdict.reason.value, now, verdict))
                self.active = None
                return
        if done:
            self._send_feedback(Feedback(active.cmd.id, FeedbackStatus.COMPLETED,
                                         "DONE", now))
            self.active = None
        else:
            self._send_feedback(Feedback(active.cmd.id, FeedbackStatus.EXECUTING,
                                         "EXECUTING", now))
