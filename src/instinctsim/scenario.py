"""Scenario files: strict JSON schema, defaults, round-trippable objects.

A scenario pins everything a run needs: the world, the robot start, tasks
with issue ticks, agent backend and cadence, channel properties, seeds, and
run length. Unknown keys are rejected by name so typos cannot silently fall
back to defaults.

Each parameter section is read, defaulted and written from its dataclass:
``_fields`` reads every field by its annotated type and takes missing ones
from the default instance, and ``Scenario.to_dict`` writes the same names
back. Only the world and the tasks have JSON shapes of their own; a task's
goal is written by ``Goal.to_payload`` and read back here, each kind with
its own keys only. Checks beyond a field's type live in ``_check``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .config import (
    AgentParams,
    BACKENDS,
    ChannelParams,
    InstinctParams,
    LidarParams,
    PHYSICS_DT,
    RobotParams,
)
from .messages import Goal, GoalKind
from .world import Circle, Pose2D, Rect, WorldModel, clearance, random_world


class ScenarioError(ValueError):
    """Scenario file rejected; the message names the offending field."""


@dataclass(frozen=True)
class TaskSpec:
    issue_tick: int
    goal: Goal


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    seed: int = 0
    ticks: int = 6000
    dt: float = PHYSICS_DT
    world: WorldModel = field(
        default_factory=lambda: WorldModel(bounds=Rect(-4.0, -4.0, 4.0, 4.0))
    )
    start: Pose2D = Pose2D(0.0, 0.0, 0.0)
    robot: RobotParams = RobotParams()
    lidar: LidarParams = LidarParams()
    instinct: InstinctParams = InstinctParams()
    agent: AgentParams = AgentParams()
    channels: ChannelParams = ChannelParams()
    tasks: tuple[TaskSpec, ...] = ()

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["world"] = _world_to_dict(self.world)
        out["tasks"] = [_task_to_dict(t) for t in self.tasks]
        return {k: asdict(v) if is_dataclass(v) else v for k, v in out.items()}


def _world_to_dict(world: WorldModel) -> dict:
    return {
        "bounds": _rect_to_dict(world.bounds),
        "circles": [{"center": [c.cx, c.cy], "radius": c.radius}
                    for c in world.circles],
        "rects": [_rect_to_dict(r) for r in world.rects],
    }


def _rect_to_dict(rect: Rect) -> dict:
    return {"min": [rect.x0, rect.y0], "max": [rect.x1, rect.y1]}


def _task_to_dict(task: TaskSpec) -> dict:
    return {"issue_tick": task.issue_tick, "goal": task.goal.to_payload()}


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number: {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{where} must be finite")
    return value


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer: {value!r}")
    return value


def _optional_integer(value, where: str) -> int | None:
    return None if value is None else _integer(value, where)


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{where} must be a boolean: {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where} must be a string: {value!r}")
    return value


# Field readers by annotation; annotations are strings under
# ``from __future__ import annotations``.
_READERS = {
    "float": _number,
    "int": _integer,
    "int | None": _optional_integer,
    "bool": _boolean,
    "str": _string,
}


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{where} must be a [x, y] pair: {value!r}")
    return _number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{where} must be a list: {value!r}")
    return value


def _shape(raw, where: str, allowed, required: tuple[str, ...] = ()) -> dict:
    """``raw`` as a JSON object with only ``allowed`` keys and every
    ``required`` one."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be an object: {raw!r}")
    for key in raw:
        if key not in allowed:
            raise ScenarioError(f"unknown field {where}.{key!r}")
    for key in required:
        if key not in raw:
            raise ScenarioError(f"missing required field {where}.{key}")
    return raw


def _fields(raw, default, where: str):
    """A copy of the dataclass ``default`` with the fields ``raw`` gives.

    Scalars are read by their annotated type; a field holding a dataclass
    is a section of its own. Sections sit at the top level of a scenario
    and are named by their key alone (``robot.radius``).
    """
    types = {f.name: f.type for f in fields(default)}
    values = {}
    for name, value in _shape(raw, where, types).items():
        reader = _READERS.get(types[name])
        if reader is None:
            values[name] = _fields(value, getattr(default, name), name)
        else:
            values[name] = reader(value, f"{where}.{name}")
    return replace(default, **values)


def _corners(raw, where: str) -> Rect:
    raw = _shape(raw, where, {"min", "max"}, ("min", "max"))
    x0, y0 = _pair(raw["min"], f"{where}.min")
    x1, y1 = _pair(raw["max"], f"{where}.max")
    return Rect(x0, y0, x1, y1)


def _parse_world(raw) -> WorldModel:
    raw = _shape(raw, "world", {"bounds", "circles", "rects"}, ("bounds",))
    circles = []
    for i, craw in enumerate(_list(raw.get("circles", []), "world.circles")):
        where = f"world.circles[{i}]"
        craw = _shape(craw, where, {"center", "radius"}, ("center", "radius"))
        cx, cy = _pair(craw["center"], f"{where}.center")
        circles.append(Circle(cx, cy, _number(craw["radius"],
                                              f"{where}.radius")))
    rects = [_corners(rraw, f"world.rects[{i}]") for i, rraw
             in enumerate(_list(raw.get("rects", []), "world.rects"))]
    bounds = _corners(raw["bounds"], "world.bounds")
    try:
        return WorldModel(bounds=bounds, circles=tuple(circles),
                          rects=tuple(rects))
    except ValueError as exc:
        raise ScenarioError(f"world: {exc}") from exc


# The keys of each goal kind, as ``Goal.to_payload`` writes them.
_GOAL_KEYS = {
    GoalKind.GOTO: ("kind", "x", "y"),
    GoalKind.PATROL: ("kind", "waypoints"),
    GoalKind.HOLD: ("kind",),
}


def _parse_tasks(raw) -> tuple[TaskSpec, ...]:
    tasks = []
    for i, traw in enumerate(_list(raw, "tasks")):
        where = f"tasks[{i}]"
        traw = _shape(traw, where, {"issue_tick", "goal"}, ("goal",))
        issue = _integer(traw.get("issue_tick", 0), f"{where}.issue_tick")
        if issue < 0:
            raise ScenarioError(f"{where}.issue_tick must be >= 0")
        where += ".goal"
        goal = _shape(traw["goal"], where, {"kind", "x", "y", "waypoints"})
        try:
            kind = GoalKind(goal.get("kind"))
        except ValueError:
            raise ScenarioError(
                f"{where}.kind unknown: {goal.get('kind')!r}") from None
        _shape(goal, where, _GOAL_KEYS[kind], _GOAL_KEYS[kind])
        route = ()
        if kind is GoalKind.GOTO:
            route = ((_number(goal["x"], f"{where}.x"),
                      _number(goal["y"], f"{where}.y")),)
        elif kind is GoalKind.PATROL:
            route = tuple(_pair(w, f"{where}.waypoints[{j}]") for j, w in
                          enumerate(_list(goal["waypoints"],
                                          f"{where}.waypoints")))
            if not route:
                raise ScenarioError(f"{where} requires waypoints")
        tasks.append(TaskSpec(issue, Goal(kind, route)))
    return tuple(tasks)


def _check(sc: Scenario) -> None:
    """Constraints beyond each field's type."""
    def require(ok: bool, message: str) -> None:
        if not ok:
            raise ScenarioError(message)

    require(sc.ticks >= 0, "scenario.ticks must be >= 0")
    require(sc.dt > 0.0, "scenario.dt must be positive")
    require(sc.world.bounds.contains(sc.start.x, sc.start.y),
            "start must lie inside world.bounds")
    for name, value in asdict(sc.robot).items():
        require(value > 0.0, f"robot.{name} must be positive")
    require(sc.lidar.beams >= 4, "lidar.beams must be >= 4")
    require(sc.lidar.max_range > 0.0, "lidar.max_range must be positive")
    require(sc.lidar.noise_std >= 0.0, "lidar.noise_std must be >= 0")
    i = sc.instinct
    require(i.d_min < i.d_stop < i.d_slow,
            "instinct requires d_min < d_stop < d_slow")
    require(i.d_min > 0.0, "instinct.d_min must be positive")
    require(i.dt_pred > 0.0, "instinct.dt_pred must be positive")
    require(i.stale_limit >= 0, "instinct.stale_limit must be >= 0")
    require(i.overload_window >= 1, "instinct.overload_window must be >= 1")
    require(0.0 < i.overload_threshold <= 1.0,
            "instinct.overload_threshold must be in (0, 1]")
    require(sc.agent.backend in BACKENDS,
            f"agent.backend unknown: {sc.agent.backend!r}")
    require(sc.agent.period_ticks >= 1, "agent.period_ticks must be >= 1")
    require(0.0 <= sc.agent.hallucination_probability <= 1.0,
            "agent.hallucination_probability must be in [0, 1]")
    for name, value in asdict(sc.channels).items():
        if name.endswith("_latency"):
            require(value >= 0, f"channels.{name} must be >= 0")
        elif name.endswith("_drop"):
            require(0.0 <= value <= 1.0, f"channels.{name} must be in [0, 1]")


def parse_scenario(raw) -> Scenario:
    """Validate a raw scenario dict and fill every default."""
    raw = _shape(raw, "scenario", {f.name for f in fields(Scenario)},
                 ("world",))
    rest = {k: v for k, v in raw.items() if k not in ("world", "tasks")}
    scenario = replace(_fields(rest, Scenario(), "scenario"),
                       world=_parse_world(raw["world"]),
                       tasks=_parse_tasks(raw.get("tasks", [])))
    _check(scenario)
    return scenario


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8 or nesting
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    return parse_scenario(raw)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def random_scenario(
    seed: int,
    backend: str = "hallucinate",
    hallucination_probability: float = 0.3,
    ticks: int = 2000,
    roaming: bool = False,
    kill_tick: int | None = None,
    min_separation: float = 2.0,
) -> Scenario:
    """Seeded scenario: 3-8 obstacles, a clear start, and one GOTO task.

    Start and goal keep at least 0.5 m of ground-truth clearance and at
    least ``min_separation`` between them, so every generated run begins in
    a legal state (and, with a large enough separation, cannot finish
    before a mid-run event such as an agent kill).
    """
    rng = random.Random(seed)
    world = random_world(rng, (3, 8))
    bounds = world.bounds

    def clear_point() -> tuple[float, float]:
        for _ in range(1000):
            x = rng.uniform(bounds.x0 + 0.6, bounds.x1 - 0.6)
            y = rng.uniform(bounds.y0 + 0.6, bounds.y1 - 0.6)
            if clearance(world, x, y) >= 0.5:
                return x, y
        raise RuntimeError(f"seed {seed}: no clear start found")

    sx, sy = clear_point()
    for _ in range(1000):
        gx, gy = clear_point()
        if math.hypot(gx - sx, gy - sy) >= min_separation:
            break
    else:
        raise RuntimeError(f"seed {seed}: no goal {min_separation} m out")
    return Scenario(
        name=f"random-{seed}",
        seed=seed,
        ticks=ticks,
        world=world,
        start=Pose2D(sx, sy, rng.uniform(-math.pi, math.pi)),
        instinct=InstinctParams(roaming=roaming),
        agent=AgentParams(backend=backend,
                          hallucination_probability=hallucination_probability,
                          kill_tick=kill_tick),
        tasks=(TaskSpec(0, Goal(GoalKind.GOTO, ((gx, gy),))),),
    )
