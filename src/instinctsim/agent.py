"""The decision layer: task planning over summarized data and feedback.

One agent loop drives four stages per wake-up (interaction: poll tasks;
perception: poll feedback and summaries; self-reflection; planning). The
planner backend is pluggable: a deterministic rule planner, a fault injector
that replaces commands with plausible-but-hostile ones at a seeded rate, and
an optional adapter for a chat-completion HTTP endpoint. The agent talks to
the rest of the system only through channels and may die at any time without
affecting the safety layer.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from enum import Enum

from .bus import Channel
from .config import BACKENDS, AgentParams, RobotParams
from .messages import (
    Feedback,
    FeedbackStatus,
    Goal,
    GoalKind,
    HighCommand,
    HighKind,
    MAX_ROUTE_POINTS,
    MalformedCommandError,
    N_SECTORS,
    ScanSummary,
)
from .trace import TraceRecorder
from .world import Rect

# Reflection, detour and completion tunables of the rule planner.
BLOCKED_EXPIRY_TICKS = 400
MAX_CONSECUTIVE_FAILURES = 3
DETOUR_DISTANCE = 1.0      # m
DETOUR_FIT_MARGIN = 0.3    # extra range a sector needs beyond the waypoint
DETOUR_SPEED = 0.15        # cautious cap for post-refusal detours, m/s
GOAL_TOLERANCE = 0.1       # task-level completion distance, m
SILENCE_TICKS = 100        # no feedback this long past latencies: command lost

# Caps on one LLM reply, checked before the work they bound.
MAX_REPLY_BYTES = 64 * 1024  # UTF-8 bytes of a reply, checked before json.loads
MAX_BATCH_COMMANDS = 16      # commands in one reply


class TaskState(Enum):
    PENDING = "PENDING"
    ACTIVE = "ACTIVE"
    COMPLETED = "COMPLETED"
    BLOCKED = "BLOCKED"


@dataclass
class Task:
    """A goal as the agent works on it; ``waypoint_idx`` counts the route
    points reached so far."""

    id: int
    goal: Goal
    state: TaskState = TaskState.PENDING
    waypoint_idx: int = 0

    def goal_point(self) -> tuple[float, float] | None:
        route = self.goal.route
        return route[min(self.waypoint_idx, len(route) - 1)] if route else None

    def to_payload(self) -> dict:
        return {"id": self.id, "state": self.state.value,
                **self.goal.to_payload()}


@dataclass
class ReflectionNote:
    """What the agent has learned from refusals since the last success."""

    blocked_bearings: dict[int, int] = field(default_factory=dict)  # sector -> expiry tick
    consecutive_failures: int = 0

    def expire(self, now: int) -> None:
        self.blocked_bearings = {
            k: t for k, t in self.blocked_bearings.items() if t > now
        }

    def clear(self) -> None:
        self.blocked_bearings.clear()
        self.consecutive_failures = 0


def self_reflection(
    notes: ReflectionNote,
    feedback: list[Feedback],
    summary: ScanSummary,
    sent_commands: dict[int, HighCommand],
    now: int,
) -> ReflectionNote:
    """Fold terminal feedback into the notes.

    A refusal for a predicted obstacle blocks the commanded bearing's sector
    until an expiry; any refusal counts toward the consecutive-failure cap,
    including one for a command already given up as lost, which blocks no
    sector since its route is forgotten; a completion wipes the slate.
    """
    for fb in feedback:
        if fb.status is FeedbackStatus.COMPLETED:
            notes.clear()
        elif fb.status is FeedbackStatus.REFUSED:
            notes.consecutive_failures += 1
            cmd = sent_commands.get(fb.command_id)
            if (fb.reason == "OBSTACLE_PREDICTED" and cmd is not None
                    and cmd.route):
                sector = summary.sector_of(*cmd.route[0])
                notes.blocked_bearings[sector] = now + BLOCKED_EXPIRY_TICKS
    return notes


def plan_rule(
    task: Task,
    notes: ReflectionNote,
    summary: ScanSummary,
    next_id,
    now: int,
) -> list[HighCommand]:
    """Deterministic planner: go straight at the goal unless that bearing is
    blocked, else detour one step along the nearest unblocked sector. At
    most one motion command is ever in flight.

    A sector only qualifies for a detour if its own returns leave room for
    the waypoint (no point planning a hop into a wall), and detours go out
    speed-capped: after a refusal the cautious retry is the whole point of
    the reflection loop.
    """
    if task.goal.kind is GoalKind.HOLD:
        return [HighCommand(next_id(), HighKind.STOP, now)]
    goal = task.goal_point()
    if goal is None:
        return []
    desired = summary.sector_of(*goal)
    if desired not in notes.blocked_bearings:
        return [HighCommand(next_id(), HighKind.MOVE_TO, now, (goal,))]
    # detour: nearest fitting unblocked sector by angular distance, then index
    fit_range = DETOUR_DISTANCE + DETOUR_FIT_MARGIN
    candidates = sorted(
        (k for k in range(N_SECTORS)
         if k not in notes.blocked_bearings
         and summary.sector_min[k] >= fit_range),
        key=lambda k: (min((k - desired) % N_SECTORS,
                           (desired - k) % N_SECTORS), k),
    )
    if not candidates:
        return []  # fully boxed in: wait for expiries
    waypoint = summary.toward(candidates[0], DETOUR_DISTANCE)
    return [HighCommand(next_id(), HighKind.MOVE_TO, now, (waypoint,),
                        speed=DETOUR_SPEED)]


def hallucinate_wrap(
    commands: list[HighCommand],
    probability: float,
    rng: random.Random,
    summary: ScanSummary,
    bounds: Rect,
    robot: RobotParams,
    now: int,
) -> list[tuple[HighCommand, HighCommand | None]]:
    """Independently replace each command with an adversarial one at the
    given seeded rate. Returns (command, original-if-replaced) pairs.

    Replacements stay wire-valid (finite targets, legal speed) so only the
    safety layer can tell them apart from honest plans: a drive into an
    occupied direction, a target far outside the bounds, or a full-speed
    run at the nearest obstacle (``ScanSummary.occupied`` sectors).
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    out: list[tuple[HighCommand, HighCommand | None]] = []
    for cmd in commands:
        if probability <= 0.0 or rng.random() >= probability:
            out.append((cmd, None))
            continue
        replacement = _adversarial_command(cmd, rng, summary, bounds,
                                           robot, now)
        out.append((replacement, cmd))
    return out


def _adversarial_command(
    cmd: HighCommand,
    rng: random.Random,
    summary: ScanSummary,
    bounds: Rect,
    robot: RobotParams,
    now: int,
) -> HighCommand:
    occupied = summary.occupied()
    mode = rng.choice(("into_obstacle", "out_of_bounds", "flank_speed"))
    if mode != "out_of_bounds" and occupied:
        if mode == "into_obstacle":
            sector = rng.choice(occupied)
            speed = None
        else:  # flank_speed at the nearest occupied sector
            sector = min(occupied, key=lambda k: summary.sector_min[k])
            speed = robot.v_wheel_max
        target = summary.toward(sector, summary.sector_min[sector] + 0.5)
        return HighCommand(cmd.id, HighKind.MOVE_TO, now, (target,),
                           speed=speed)
    # far out of bounds but still finite
    span = max(bounds.x1 - bounds.x0, bounds.y1 - bounds.y0)
    angle = rng.uniform(-math.pi, math.pi)
    cx, cy = 0.5 * (bounds.x0 + bounds.x1), 0.5 * (bounds.y0 + bounds.y1)
    return HighCommand(cmd.id, HighKind.MOVE_TO, now,
                       ((cx + 3.0 * span * math.cos(angle),
                         cy + 3.0 * span * math.sin(angle)),))


# The keys each command kind reads, as ``HighCommand.to_payload`` writes them.
_COMMAND_KEYS = {HighKind.MOVE_TO: {"x", "y", "speed"},
                 HighKind.FOLLOW_PATH: {"waypoints", "speed"},
                 HighKind.ROTATE_TO: {"theta"},
                 HighKind.STOP: set()}
_ANY_COMMAND_KEY = set().union(*_COMMAND_KEYS.values())


def parse_llm_commands(
    response_text, v_wheel_max: float, next_id, now: int
) -> list[HighCommand]:
    """Parse a structured command array out of model output.

    The output must be a string (a reply's ``content`` is decoded JSON and
    may be null, a list or a number) of at most ``MAX_REPLY_BYTES``. The
    first JSON array found is taken; it holds at most ``MAX_BATCH_COMMANDS``
    elements, and every element must be an object with a known "kind" and
    in-range parameters. Each kind reads only its own keys; a key of another
    kind is an error, and a key no kind reads is ignored. Any invalid
    element rejects the whole batch (raise, never silently clamp).
    """
    if not isinstance(response_text, str):
        raise MalformedCommandError(
            f"response is not text: {type(response_text).__name__}")
    # a decoded reply may hold lone surrogates, which strict UTF-8 refuses
    size = len(response_text.encode("utf-8", "surrogatepass"))
    if size > MAX_REPLY_BYTES:
        raise MalformedCommandError(
            f"reply of {size} bytes exceeds {MAX_REPLY_BYTES}")
    start = response_text.find("[")
    end = response_text.rfind("]")
    if start < 0 or end <= start:
        raise MalformedCommandError("no JSON array in response")
    try:
        raw = json.loads(response_text[start:end + 1])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedCommandError(f"unparseable command array: {exc}") from exc
    if not isinstance(raw, list):
        raise MalformedCommandError("command payload is not an array")
    if len(raw) > MAX_BATCH_COMMANDS:
        raise MalformedCommandError(
            f"batch of {len(raw)} commands exceeds {MAX_BATCH_COMMANDS}")
    commands: list[HighCommand] = []
    for item in raw:
        if not isinstance(item, dict):
            raise MalformedCommandError(f"command entry is not an object: {item!r}")
        kind_name = item.get("kind")
        try:
            kind = HighKind(kind_name)
        except ValueError:
            raise MalformedCommandError(f"unknown command kind: {kind_name!r}")
        stray = sorted(_ANY_COMMAND_KEY.intersection(item) - _COMMAND_KEYS[kind])
        if stray:
            raise MalformedCommandError(f"{kind.value} takes no {stray[0]!r}")
        route = _route([[item.get("x"), item.get("y")]]
                       if kind is HighKind.MOVE_TO else item.get("waypoints"))
        cmd = HighCommand(next_id(), kind, now, route,
                          theta=_num(item.get("theta")),
                          speed=_num(item.get("speed")))
        cmd.validate(v_wheel_max)
        commands.append(cmd)
    return commands


def _num(value) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedCommandError(f"expected a number: {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise MalformedCommandError(f"number out of range: {value!r}") from None


def _route(value) -> tuple[tuple[float, float], ...]:
    """A JSON list of at most ``MAX_ROUTE_POINTS`` [x, y] number pairs,
    its length checked before any point is read; an absent list is
    empty."""
    if value is None:
        return ()
    if not isinstance(value, list):
        raise MalformedCommandError(f"waypoints must be an array: {value!r}")
    if len(value) > MAX_ROUTE_POINTS:
        raise MalformedCommandError(
            f"route of {len(value)} points exceeds {MAX_ROUTE_POINTS}")
    out = []
    for pair in value:
        point = tuple(map(_num, pair)) if isinstance(pair, list) else ()
        if len(point) != 2 or None in point:
            raise MalformedCommandError(f"bad route point: {pair!r}")
        out.append(point)
    return tuple(out)


_COMMAND_SCHEMA_PROMPT = """\
You control a differential-drive robot through a safety layer. Reply with a
JSON array of command objects only. Supported kinds:
  {"kind": "MOVE_TO", "x": <m>, "y": <m>, "speed": <optional m/s>}
  {"kind": "ROTATE_TO", "theta": <rad>}
  {"kind": "FOLLOW_PATH", "waypoints": [[x, y], ...], "speed": <optional m/s>}
  {"kind": "STOP"}
Speeds must lie in (0, %%s]. Unsafe commands will be refused by the robot.
A reply holds at most %d commands, a path at most %d waypoints, and the
whole reply at most %d bytes; a reply over any cap is rejected whole.
""" % (MAX_BATCH_COMMANDS, MAX_ROUTE_POINTS, MAX_REPLY_BYTES)


class LlmBackend:
    """Adapter for a chat-completion style HTTP endpoint.

    Endpoint and key come from the environment (INSTINCTSIM_LLM_URL,
    INSTINCTSIM_LLM_KEY); the transport is injectable for tests. Strictly
    optional: never used by the acceptance suite.
    """

    def __init__(self, model: str = "default", url: str | None = None,
                 api_key: str | None = None, timeout: float = 10.0,
                 post=None) -> None:
        self.model = model
        self.url = url or os.environ.get("INSTINCTSIM_LLM_URL", "")
        self.api_key = api_key or os.environ.get("INSTINCTSIM_LLM_KEY", "")
        self.timeout = timeout
        if post is None:
            try:
                import requests
            except ImportError:
                raise RuntimeError(
                    "the LLM backend needs the 'requests' package: "
                    "pip install instinctsim[llm]") from None
            post = requests.post
        self._post = post

    def complete(self, v_wheel_max: float, task: Task,
                 summary: ScanSummary) -> str:
        if not self.url:
            raise RuntimeError("INSTINCTSIM_LLM_URL is not configured")
        body = {
            "model": self.model,
            "messages": [
                {"role": "system",
                 "content": _COMMAND_SCHEMA_PROMPT % v_wheel_max},
                {"role": "user",
                 "content": json.dumps({"task": task.to_payload(),
                                        "summary": summary.to_payload()})},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_exc: Exception | None = None
        for _ in range(2):  # single retry
            try:
                resp = self._post(self.url, json=body, headers=headers,
                                  timeout=self.timeout)
                resp.raise_for_status()
                data = resp.json()
                return data["choices"][0]["message"]["content"]
            except Exception as exc:  # noqa: BLE001 - adapter boundary
                last_exc = exc
        raise RuntimeError(f"LLM endpoint failed: {last_exc}")


class DecisionAgent:
    """Algorithm loop: tasks in, feedback/summaries in, high commands out."""

    def __init__(
        self,
        task_channel: Channel,
        command_channel: Channel,
        feedback_channel: Channel,
        data_channel: Channel,
        recorder: TraceRecorder,
        robot: RobotParams,
        params: AgentParams,
        bounds: Rect,
        hallucination_rng: random.Random,
        llm: LlmBackend | None = None,
    ) -> None:
        if params.backend not in BACKENDS:
            raise ValueError(f"unknown backend: {params.backend}")
        self.task_channel = task_channel
        self.command_channel = command_channel
        self.feedback_channel = feedback_channel
        self.data_channel = data_channel
        self.recorder = recorder
        self.robot = robot
        self.params = params
        self.bounds = bounds
        self.hallucination_rng = hallucination_rng
        self.llm = llm
        self.tasks: list[Task] = []
        self.notes = ReflectionNote()
        self.summary: ScanSummary | None = None
        self.sent_commands: dict[int, HighCommand] = {}  # until terminal/lost
        self.in_flight: int | None = None
        self._heard_tick = 0  # in-flight send tick or latest feedback tick
        self._cmd_id = 0

    def _next_cmd_id(self) -> int:
        self._cmd_id += 1
        return self._cmd_id

    def all_tasks_terminal(self) -> bool:
        return bool(self.tasks) and all(
            t.state in (TaskState.COMPLETED, TaskState.BLOCKED)
            for t in self.tasks
        )

    def _current_task(self) -> Task | None:
        for task in self.tasks:
            if task.state in (TaskState.PENDING, TaskState.ACTIVE):
                return task
        return None

    def tick(self, now: int) -> None:
        # (1) interaction: new tasks from the external layer, FIFO
        for task in self.task_channel.poll(now):
            self.tasks.append(task)
        # (2) perception: feedback and the freshest summary
        feedback = self.feedback_channel.poll(now)
        self._heard_tick = max([self._heard_tick] + [fb.tick for fb in feedback])
        for summary in self.data_channel.poll(now):
            self.summary = summary
        if self.summary is None:
            return  # nothing sensed yet: no blind planning
        # (3) self-reflection
        self.notes.expire(now)
        self_reflection(self.notes, feedback, self.summary,
                        self.sent_commands, now)
        task = self._current_task()
        self._apply_terminal_feedback(feedback, task)
        task = self._current_task()
        if task is None:
            return
        if task.state is TaskState.PENDING:
            task.state = TaskState.ACTIVE
            self.recorder.emit("DECISION", "task_activated", task.to_payload())
        # (4) plan — only with no motion command in flight. A live command
        # draws feedback every tick, so silence means it or its end was lost.
        if self.in_flight is not None:
            if (now - self._heard_tick - self.command_channel.latency
                    - self.feedback_channel.latency <= SILENCE_TICKS):
                return
            self.recorder.emit("DECISION", "command_lost",
                               {"command_id": self.in_flight})
            self.sent_commands.pop(self.in_flight, None)
            self.in_flight = None
        commands = self._plan(task, now)
        # (5) transmit
        for cmd, original in commands:
            if original is not None:
                self.recorder.emit("DECISION", "hallucination", {
                    "command_id": cmd.id,
                    "original": original.to_payload(),
                    "replacement": cmd.to_payload(),
                })
            self.sent_commands[cmd.id] = cmd
            self.recorder.emit("DECISION", "command_sent", cmd.to_payload())
            self.in_flight = cmd.id
            self._heard_tick = now
            self.command_channel.transmit(cmd, now)

    def _plan(self, task: Task, now: int
              ) -> list[tuple[HighCommand, HighCommand | None]]:
        backend = self.params.backend
        if backend == "llm":
            planned = self._plan_llm(task, now)
        else:
            planned = plan_rule(task, self.notes, self.summary,
                                self._next_cmd_id, now)
        if backend == "hallucinate":
            return hallucinate_wrap(planned,
                                    self.params.hallucination_probability,
                                    self.hallucination_rng, self.summary,
                                    self.bounds, self.robot, now)
        return [(cmd, None) for cmd in planned]

    def _plan_llm(self, task: Task, now: int) -> list[HighCommand]:
        try:
            text = self.llm.complete(self.robot.v_wheel_max, task, self.summary)
            return parse_llm_commands(text, self.robot.v_wheel_max,
                                      self._next_cmd_id, now)
        except (MalformedCommandError, RuntimeError) as exc:
            self.recorder.emit("DECISION", "plan_rejected", {"reason": str(exc)})
            return []

    def _apply_terminal_feedback(self, feedback: list[Feedback],
                                 task: Task | None) -> None:
        for fb in feedback:
            if fb.command_id is None or not fb.terminal:
                continue
            # reflection has read the command; no later feedback names it
            self.sent_commands.pop(fb.command_id, None)
            if fb.command_id == self.in_flight:
                self.in_flight = None
            if task is None or task.state in (TaskState.COMPLETED,
                                              TaskState.BLOCKED):
                continue  # a task ends once
            if fb.status is FeedbackStatus.COMPLETED:
                self._advance_task(task)
            elif fb.status is FeedbackStatus.REFUSED:
                if self.notes.consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                    task.state = TaskState.BLOCKED
                    self.recorder.emit("DECISION", "task_blocked",
                                       task.to_payload())

    def _advance_task(self, task: Task) -> None:
        pose = self.summary.pose
        goal = task.goal_point()
        if task.goal.kind is GoalKind.HOLD:
            task.state = TaskState.COMPLETED
        elif goal is not None and math.hypot(
                goal[0] - pose.x, goal[1] - pose.y) <= GOAL_TOLERANCE:
            task.waypoint_idx += 1
            if task.waypoint_idx >= len(task.goal.route):
                task.state = TaskState.COMPLETED  # single pass
        if task.state is TaskState.COMPLETED:
            self.recorder.emit("DECISION", "task_completed", task.to_payload())
