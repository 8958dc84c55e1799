"""Scenario schema tests: defaults, strictness, round-trips, generation."""

import json
import math
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from instinctsim import config
from instinctsim.cli import main as cli_main
from instinctsim.config import (
    AgentParams,
    ChannelParams,
    InstinctParams,
    LidarParams,
    RobotParams,
)
from instinctsim.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
    random_scenario,
    save_scenario,
)
from instinctsim.world import clearance

SCHEMA_DOC = (Path(__file__).resolve().parent.parent / "docs"
              / "scenario_schema.md")

MINIMAL = {
    "world": {"bounds": {"min": [-4, -4], "max": [4, 4]}},
    "tasks": [{"issue_tick": 0, "goal": {"kind": "GOTO", "x": 3.0, "y": 2.0}}],
}


class TestParsing:
    def test_minimal_gets_all_defaults(self):
        sc = parse_scenario(dict(MINIMAL))
        assert sc.robot.radius == 0.15
        assert sc.instinct.d_min == 0.2
        assert sc.lidar.beams == 36
        assert sc.agent.backend == "rule"
        assert sc.channels.command_latency == 2
        assert sc.ticks == 6000
        assert len(sc.tasks) == 1

    def test_unknown_key_rejected_by_name(self):
        raw = dict(MINIMAL)
        raw["robo_speed"] = 3.0
        with pytest.raises(ScenarioError, match="robo_speed"):
            parse_scenario(raw)

    def test_unknown_nested_key_rejected(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["robot"] = {"radius": 0.2, "wheel_count": 4}
        with pytest.raises(ScenarioError, match="wheel_count"):
            parse_scenario(raw)

    def test_missing_world_rejected(self):
        with pytest.raises(ScenarioError, match="world"):
            parse_scenario({"tasks": []})

    def test_missing_bounds_rejected(self):
        with pytest.raises(ScenarioError, match="bounds"):
            parse_scenario({"world": {"circles": []}})

    def test_invariant_violations_named(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["world"]["circles"] = [{"center": [0, 0], "radius": -1.0}]
        with pytest.raises(ScenarioError, match="radius"):
            parse_scenario(raw)
        raw = json.loads(json.dumps(MINIMAL))
        raw["instinct"] = {"d_min": 0.4, "d_stop": 0.3}
        with pytest.raises(ScenarioError, match="d_min < d_stop"):
            parse_scenario(raw)
        raw = json.loads(json.dumps(MINIMAL))
        raw["start"] = {"x": 99.0, "y": 0.0}
        with pytest.raises(ScenarioError, match="start"):
            parse_scenario(raw)

    # each of these switches a guarantee or a guard off: d_min <= 0 lets the
    # check approve contact, a negative stale_limit refuses every motion, an
    # overload_window of 0 latches overload safe mode from tick 0, and as
    # the load lies in [0, 1], an overload_threshold above 1 never trips
    # while one of 0 or less latches overload safe mode whatever the load
    @pytest.mark.parametrize("instinct, where", [
        ({"d_min": -0.3, "d_stop": 0.0, "d_slow": 0.1}, "instinct.d_min"),
        ({"d_min": 0.0}, "instinct.d_min"),
        ({"stale_limit": -1}, "instinct.stale_limit"),
        ({"overload_window": 0}, "instinct.overload_window"),
        ({"overload_threshold": 1.5}, "instinct.overload_threshold"),
        ({"overload_threshold": 0.0}, "instinct.overload_threshold"),
    ], ids=["d_min-negative", "d_min-zero", "stale_limit", "overload_window",
            "overload_threshold-above-1", "overload_threshold-zero"])
    def test_threshold_that_disables_a_guard_rejected(self, instinct, where):
        with pytest.raises(ScenarioError, match=re.escape(where)):
            parse_scenario(with_change(("instinct",), instinct))

    def test_bad_goal_kind(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["tasks"] = [{"issue_tick": 0, "goal": {"kind": "TELEPORT"}}]
        with pytest.raises(ScenarioError, match="TELEPORT"):
            parse_scenario(raw)

    def test_backend_validated(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["agent"] = {"backend": "psychic"}
        with pytest.raises(ScenarioError, match="psychic"):
            parse_scenario(raw)


def with_change(path, value):
    """A copy of MINIMAL with ``value`` at the key path ``path``."""
    raw = json.loads(json.dumps(MINIMAL))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


PATROL = {"kind": "PATROL", "waypoints": [[1.0, 0.0]]}

# (key path, bad value, field the error must name)
MALFORMED = [
    (("robot",), 5, "robot"),
    (("robot",), ["radius"], "robot"),
    (("start",), 5, "start"),
    (("instinct",), None, "instinct"),
    (("world",), ["bounds"], "world"),
    (("world", "bounds"), 5, "world.bounds"),
    (("world", "circles"), 5, "world.circles"),
    (("world", "circles"), [5], "world.circles[0]"),
    (("world", "rects"), [5], "world.rects[0]"),
    (("tasks",), [5], "tasks[0]"),
    (("tasks", 0, "goal"), 5, "tasks[0].goal"),
    (("tasks", 0, "goal"), dict(PATROL, waypoints=5),
     "tasks[0].goal.waypoints"),
]

NON_FINITE = [
    (("world", "bounds", "min"), [-math.inf, -4], "world.bounds.min[0]"),
    (("world", "bounds", "max"), [4, math.nan], "world.bounds.max[1]"),
    (("world", "circles"), [{"center": [math.inf, 0], "radius": 0.3}],
     "world.circles[0].center[0]"),
    (("world", "circles"), [{"center": [10**400, 0], "radius": 0.3}],
     "world.circles[0].center[0]"),
    (("tasks", 0, "goal"), dict(PATROL, waypoints=[[math.nan, 0]]),
     "tasks[0].goal.waypoints[0][0]"),
]

WRONG_TYPE = [
    (("name",), 5, "scenario.name"),
    (("agent",), {"llm_model": 5}, "agent.llm_model"),
    (("agent",), {"kill_tick": 1.5}, "agent.kill_tick"),
    (("instinct",), {"roaming": 1}, "instinct.roaming"),
    (("lidar",), {"beams": 36.0}, "lidar.beams"),
    (("robot",), {"radius": True}, "robot.radius"),
]


# a key that belongs to another goal kind: (key path, goal, key it names)
CROSS_KIND = [
    (("tasks", 0, "goal"), {"kind": "HOLD", "x": 1.0}, "tasks[0].goal.'x'"),
    (("tasks", 0, "goal"), {"kind": "GOTO", "x": 1, "y": 2,
                            "waypoints": [[0, 0]]},
     "tasks[0].goal.'waypoints'"),
    (("tasks", 0, "goal"), dict(PATROL, x="junk"), "tasks[0].goal.'x'"),
]


def ids(cases):
    return [where for _, _, where in cases]


class TestMalformed:
    @pytest.mark.parametrize("path, value, where", MALFORMED,
                             ids=ids(MALFORMED))
    def test_non_object_part_rejected(self, path, value, where):
        pattern = re.escape(where) + " must be (an object|a list)"
        with pytest.raises(ScenarioError, match=pattern):
            parse_scenario(with_change(path, value))

    @pytest.mark.parametrize("path, value, where", NON_FINITE,
                             ids=ids(NON_FINITE))
    def test_non_finite_coordinate_rejected(self, path, value, where):
        with pytest.raises(ScenarioError,
                           match=re.escape(f"{where} must be finite")):
            parse_scenario(with_change(path, value))

    @pytest.mark.parametrize("path, value, where", WRONG_TYPE,
                             ids=ids(WRONG_TYPE))
    def test_wrong_scalar_type_rejected(self, path, value, where):
        with pytest.raises(ScenarioError, match=re.escape(f"{where} must be")):
            parse_scenario(with_change(path, value))

    @pytest.mark.parametrize("path, value, where", CROSS_KIND,
                             ids=["HOLD.x", "GOTO.waypoints", "PATROL.x"])
    def test_key_of_another_goal_kind_rejected(self, path, value, where):
        with pytest.raises(ScenarioError,
                           match=re.escape(f"unknown field {where}")):
            parse_scenario(with_change(path, value))

    @pytest.mark.parametrize("path, value, where",
                             MALFORMED + NON_FINITE + WRONG_TYPE,
                             ids=ids(MALFORMED + NON_FINITE + WRONG_TYPE))
    def test_cli_exits_2(self, tmp_path, capsys, path, value, where):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(with_change(path, value)))
        assert cli_main(["--scenario", str(scenario)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["bad-utf8", "deep-nesting"])
    def test_undecodable_file_is_scenario_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(str(path))


class TestSchemaDoc:
    def test_example_sections_equal_defaults(self):
        text = SCHEMA_DOC.read_text(encoding="utf-8")
        example = re.search(r"```json\n(.*?)```", text, re.S).group(1)
        sc = parse_scenario(json.loads(example))
        assert sc.robot == RobotParams()
        assert sc.lidar == LidarParams()
        assert sc.instinct == InstinctParams()
        assert sc.agent == AgentParams()
        assert sc.channels == ChannelParams()
        default = Scenario()
        assert (sc.seed, sc.ticks, sc.dt) == (default.seed, default.ticks,
                                              default.dt)

    def test_every_params_class_is_a_section(self):
        # config's docstring: every value there is settable per scenario
        params = {obj for name, obj in vars(config).items()
                  if name.endswith("Params") and is_dataclass(obj)}
        sections = {type(getattr(Scenario(), f.name))
                    for f in fields(Scenario)}
        assert params
        assert params - sections == set()


# Fields whose value is one of a fixed set of names.
CHOICES = {"backend": "hallucinate"}


def changed(obj):
    """A copy of the dataclass ``obj`` with every field but the world and
    the tasks set to a valid non-default value, sections included."""
    values = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in ("world", "tasks"):
            continue
        if is_dataclass(value):
            new = changed(value)
        elif f.name in CHOICES:
            new = CHOICES[f.name]
        elif isinstance(value, bool):
            new = not value
        elif isinstance(value, float):
            new = value + 0.125
        elif value is None or isinstance(value, int):
            new = (value or 0) + 1
        elif isinstance(value, str):
            new = value + "-2"
        else:
            pytest.fail(f"no non-default value for {f.name}: {value!r}")
        assert new != value, f.name
        values[f.name] = new
    return replace(obj, **values)


class TestRoundTrip:
    def test_every_field_round_trips(self, tmp_path):
        sc = changed(parse_scenario(json.loads(json.dumps(MINIMAL))))
        path = tmp_path / "every.json"
        save_scenario(sc, str(path))
        assert load_scenario(str(path)) == sc

    def test_load_save_load_equals(self, tmp_path):
        raw = json.loads(json.dumps(MINIMAL))
        raw["world"]["circles"] = [{"center": [1.0, 1.0], "radius": 0.4}]
        raw["world"]["rects"] = [{"min": [-2.0, -2.0], "max": [-1.0, -1.0]}]
        raw["agent"] = {"backend": "hallucinate",
                        "hallucination_probability": 0.3}
        raw["seed"] = 7
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        first = load_scenario(str(path))
        out = tmp_path / "roundtrip.json"
        save_scenario(first, str(out))
        second = load_scenario(str(out))
        assert first == second

    def test_unreadable_path_is_scenario_error(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario("/nonexistent/path.json")

    def test_invalid_json_is_scenario_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(str(path))


class TestRandomScenario:
    def test_deterministic_per_seed(self):
        assert random_scenario(5) == random_scenario(5)
        assert random_scenario(5) != random_scenario(6)

    def test_contract_over_seeds(self):
        for seed in range(40):
            sc = random_scenario(seed)
            n = len(sc.world.circles) + len(sc.world.rects)
            assert 3 <= n <= 8
            assert clearance(sc.world, sc.start.x, sc.start.y) >= 0.5
            task = sc.tasks[0]
            assert clearance(sc.world, *task.goal.route[0]) >= 0.5

    def test_round_trips_through_json(self, tmp_path):
        sc = random_scenario(11)
        path = tmp_path / "gen.json"
        save_scenario(sc, str(path))
        assert load_scenario(str(path)) == sc
