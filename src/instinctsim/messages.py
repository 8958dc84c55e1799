"""Goal, command, feedback, and summary types exchanged between layers.

These are the wire contract: the agent only ever sees ``Goal`` /
``HighCommand`` / ``Feedback`` / ``ScanSummary``; the device only ever runs
a vetted ``LowCommand``, for its ``duration_ticks``, and then brakes. The
instinct layer bridges the two command vocabularies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .world import N_SECTORS, Pose2D, sector_angle, sector_index, wrap_angle

MAX_ROUTE_POINTS = 256  # points of one HighCommand's route
MAX_QUEUED_COMMANDS = 16  # accepted commands waiting behind the active one


class MalformedCommandError(ValueError):
    """A command failed validation; the whole batch it came in is rejected."""


class GoalKind(Enum):
    GOTO = "GOTO"
    PATROL = "PATROL"
    HOLD = "HOLD"


@dataclass(frozen=True)
class Goal:
    """What a task asks for: the points of ``route`` reached in order. A
    GOTO's route is its one point, a PATROL's its waypoints, a HOLD's empty.
    """

    kind: GoalKind
    route: tuple[tuple[float, float], ...] = ()

    def to_payload(self) -> dict:
        """The goal's JSON shape, in scenario files and in the trace."""
        out: dict = {"kind": self.kind.value}
        if self.kind is GoalKind.GOTO:
            out["x"], out["y"] = self.route[0]
        elif self.kind is GoalKind.PATROL:
            out["waypoints"] = [list(p) for p in self.route]
        return out


class HighKind(Enum):
    MOVE_TO = "MOVE_TO"
    ROTATE_TO = "ROTATE_TO"
    FOLLOW_PATH = "FOLLOW_PATH"
    STOP = "STOP"


class LowKind(Enum):
    SET_WHEELS = "SET_WHEELS"
    STOP_ALL = "STOP_ALL"


class VerdictReason(Enum):
    OK = "OK"
    OBSTACLE_PREDICTED = "OBSTACLE_PREDICTED"
    OUT_OF_BOUNDS = "OUT_OF_BOUNDS"
    LIMIT_EXCEEDED = "LIMIT_EXCEEDED"


class FeedbackStatus(Enum):
    ACCEPTED = "ACCEPTED"
    EXECUTING = "EXECUTING"
    COMPLETED = "COMPLETED"
    REFUSED = "REFUSED"
    SAFE_MODE = "SAFE_MODE"


TERMINAL_STATUSES = frozenset(
    {FeedbackStatus.COMPLETED, FeedbackStatus.REFUSED, FeedbackStatus.SAFE_MODE}
)


@dataclass(frozen=True)
class HighCommand:
    """Agent-level symbolic command. ``route`` is a MOVE_TO's one target or
    a FOLLOW_PATH's waypoints, empty for the other kinds; ``theta`` is a
    ROTATE_TO's heading; ``speed`` optionally caps a route kind's travel."""

    id: int
    kind: HighKind
    issued_tick: int
    route: tuple[tuple[float, float], ...] = ()
    theta: float | None = None
    speed: float | None = None

    def validate(self, v_wheel_max: float) -> None:
        """Raise MalformedCommandError unless the parameters are usable. A
        route longer than ``MAX_ROUTE_POINTS`` is refused before any of its
        points is read."""
        if self.kind in (HighKind.MOVE_TO, HighKind.FOLLOW_PATH):
            if not self.route:
                raise MalformedCommandError(f"{self.kind.value} requires a route")
            if len(self.route) > MAX_ROUTE_POINTS:
                raise MalformedCommandError(
                    f"route of {len(self.route)} points exceeds "
                    f"{MAX_ROUTE_POINTS}")
            if self.kind is HighKind.MOVE_TO and len(self.route) != 1:
                raise MalformedCommandError(
                    f"MOVE_TO takes exactly one point, got {len(self.route)}")
            for point in self.route:
                if len(point) != 2 or not all(math.isfinite(v) for v in point):
                    raise MalformedCommandError(f"bad route point: {point!r}")
        elif self.kind is HighKind.ROTATE_TO:
            if self.theta is None or not math.isfinite(self.theta):
                raise MalformedCommandError("ROTATE_TO requires finite theta")
        if self.speed is not None:
            if not math.isfinite(self.speed) or not 0.0 < self.speed <= v_wheel_max:
                raise MalformedCommandError(
                    f"speed must be in (0, {v_wheel_max}]: {self.speed}"
                )

    def to_payload(self) -> dict:
        """The command's JSON shape, in the trace and in LLM replies."""
        out: dict = {"id": self.id, "kind": self.kind.value,
                     "issued_tick": self.issued_tick}
        if self.kind is HighKind.MOVE_TO:
            out["x"], out["y"] = self.route[0]
        elif self.kind is HighKind.FOLLOW_PATH:
            out["waypoints"] = [list(p) for p in self.route]
        if self.theta is not None:
            out["theta"] = self.theta
        if self.speed is not None:
            out["speed"] = self.speed
        return out


@dataclass(frozen=True)
class LowCommand:
    """Device-level primitive; ``parent_id`` is None for survival-task
    commands that have no originating high command."""

    id: int
    parent_id: int | None
    kind: LowKind
    v_left: float = 0.0
    v_right: float = 0.0
    duration_ticks: int = 1

    def __post_init__(self) -> None:
        if self.duration_ticks < 1:
            raise ValueError("duration_ticks must be >= 1")


@dataclass(frozen=True)
class SafetyVerdict:
    """Outcome of the predictive check; safe iff reason is OK iff the
    predicted minimum clearance stays at or above d_min.

    ``bound`` names a clearance that is a certified lower bound rather than
    the sampled minimum: ``"disc"`` for the travel-bound approval.
    """

    safe: bool
    predicted_min_clearance: float
    reason: VerdictReason
    bound: str | None = None

    def to_payload(self) -> dict:
        out = {
            "safe": self.safe,
            "predicted_min_clearance": self.predicted_min_clearance,
            "reason": self.reason.value,
        }
        if self.bound is not None:
            out["bound"] = self.bound
        return out


@dataclass(frozen=True)
class Feedback:
    """Status message for one command (or system-level when command_id is
    None, e.g. the per-tick safe-mode notice)."""

    command_id: int | None
    status: FeedbackStatus
    reason: str
    tick: int
    verdict: SafetyVerdict | None = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def to_payload(self) -> dict:
        out: dict = {
            "command_id": self.command_id,
            "status": self.status.value,
            "reason": self.reason,
            "tick": self.tick,
        }
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_payload()
        return out


class Mode(Enum):
    """The instinct layer's safe-mode latch, as each summary reports it."""

    NORMAL = "NORMAL"
    SAFE = "SAFE"


@dataclass(frozen=True)
class ScanSummary:
    """The simplified sensor view the agent receives, and the owner of its
    sector frame: eight 45-degree sector minima in the robot frame (sector
    0 centered on the heading), the lidar's range (a minimum at it is no
    return), the nearest return, and the robot's own estimate of its state.
    """

    sector_min: tuple[float, ...]
    max_range: float
    nearest_bearing: float
    nearest_range: float
    pose: Pose2D
    load: float
    mode: Mode
    tick: int

    def occupied(self) -> list[int]:
        """Sectors with a return, ascending: a minimum below max_range."""
        return [k for k in range(N_SECTORS)
                if self.sector_min[k] < self.max_range]

    def sector_of(self, x: float, y: float) -> int:
        """Sector holding the bearing from the pose to world point (x, y)."""
        pose = self.pose
        return sector_index(wrap_angle(
            math.atan2(y - pose.y, x - pose.x) - pose.theta))

    def toward(self, sector: int, distance: float) -> tuple[float, float]:
        """World point ``distance`` from the pose along a sector's center."""
        pose = self.pose
        direction = pose.theta + sector_angle(sector)
        return (pose.x + distance * math.cos(direction),
                pose.y + distance * math.sin(direction))

    def to_payload(self) -> dict:
        return {
            "sector_min": list(self.sector_min),
            "max_range": self.max_range,
            "nearest_bearing": self.nearest_bearing,
            "nearest_range": self.nearest_range,
            "pose": [self.pose.x, self.pose.y, self.pose.theta],
            "load": self.load,
            "mode": self.mode.value,
            "tick": self.tick,
        }
