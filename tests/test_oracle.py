"""Oracle-harness tests: case generation, fine-dt verdicts, agreement math,
the array oracle against the scalar loop it replaced, and the pruned
obstacle distance against brute force."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instinctsim.config import InstinctParams, PHYSICS_DT, RobotParams
from instinctsim.instinct import ObstacleBelief, safety_check
from instinctsim.messages import LowCommand, LowKind, SafetyVerdict, VerdictReason
from instinctsim.oracle import (
    AgreementReport,
    ScenarioCase,
    _fine_path,
    _obstacle_min,
    agreement_report,
    gen_scenario,
    oracle_safety,
)
from instinctsim.world import Pose2D, Rect, WorldModel, clearance

ROBOT = RobotParams()
PARAMS = InstinctParams()


# -- frozen reference ----------------------------------------------------------

def reference_fine_path(start, v_left, v_right, hold_s, dt_fine, robot):
    """The oracle's integration as first written: one scalar loop step by
    step, ``math.sin``/``math.cos`` and a list of samples."""
    brake_s = max(abs(v_left), abs(v_right)) / robot.a_max
    horizon = hold_s + brake_s + 0.1
    x, y, th = start.x, start.y, start.theta
    vl, vr = v_left, v_right
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
    return np.array(xs), np.array(ys)


def reference_oracle_safety(case, dt_fine=0.002, robot=ROBOT, params=PARAMS,
                            physics_dt=PHYSICS_DT):
    """The reference loop's samples, ``hypot`` over every (sample, point)
    pair and the per-sample bounds margins."""
    low = case.command
    if low.kind is not LowKind.SET_WHEELS:
        return SafetyVerdict(True, math.inf, VerdictReason.OK)
    hold_s = low.duration_ticks * physics_dt
    px, py = reference_fine_path(case.start, low.v_left, low.v_right, hold_s,
                                 dt_fine, robot)
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


class TestGenScenario:
    def test_same_seed_identical(self):
        a = gen_scenario(42)
        b = gen_scenario(42)
        assert a.world == b.world
        assert a.start == b.start
        assert a.command == b.command
        assert np.array_equal(a.belief.points, b.belief.points)

    def test_generator_contract_over_many_seeds(self):
        for seed in range(300):
            case = gen_scenario(seed)
            n_obstacles = len(case.world.circles) + len(case.world.rects)
            assert 1 <= n_obstacles <= 8, f"seed {seed}"
            assert clearance(case.world, case.start.x, case.start.y) >= 0.5, \
                f"seed {seed}"
            if case.command.kind is LowKind.SET_WHEELS:
                assert abs(case.command.v_left) <= ROBOT.v_wheel_max
                assert abs(case.command.v_right) <= ROBOT.v_wheel_max
                assert case.command.duration_ticks >= 1

    def test_command_mix_includes_stops(self):
        kinds = {gen_scenario(seed).command.kind for seed in range(200)}
        assert LowKind.SET_WHEELS in kinds
        assert LowKind.STOP_ALL in kinds


class TestOracleSafety:
    def test_stop_is_safe(self):
        case = gen_scenario(1)
        stop_case = ScenarioCase(case.seed, case.world, case.start,
                                 LowCommand(1, None, LowKind.STOP_ALL),
                                 case.belief)
        assert oracle_safety(stop_case).safe

    def test_head_on_case_unsafe(self):
        # the oracle is itself the source of this expected value
        belief = ObstacleBelief(points=np.array([[0.30, 0.0]]), built_tick=0)
        case = ScenarioCase(
            seed=0,
            world=WorldModel(bounds=Rect(-4, -4, 4, 4)),
            start=Pose2D(0, 0, 0),
            command=LowCommand(1, None, LowKind.SET_WHEELS, 0.5, 0.5, 200),
            belief=belief,
        )
        v = oracle_safety(case)
        assert not v.safe
        assert v.reason is VerdictReason.OBSTACLE_PREDICTED
        assert v.predicted_min_clearance < PARAMS.d_min
        assert v.predicted_min_clearance == pytest.approx(-0.15, abs=1e-3)

    def test_refinement_stable_off_boundary(self):
        flips = 0
        checked = 0
        for seed in range(120):
            case = gen_scenario(seed)
            coarse = oracle_safety(case, dt_fine=0.002)
            if abs(coarse.predicted_min_clearance - PARAMS.d_min) < 0.02:
                continue
            fine = oracle_safety(case, dt_fine=0.001)
            checked += 1
            if coarse.safe != fine.safe:
                flips += 1
        assert checked > 80
        assert flips == 0

    @pytest.mark.parametrize("v_left, v_right", [
        (math.nan, 0.3), (math.nan, math.nan), (0.3, math.nan),
        (math.inf, 0.3), (-math.inf, 0.3), (math.inf, math.inf),
    ])
    def test_non_finite_wheel_speed_raises(self, v_left, v_right):
        # a NaN speed used to be approved or refused with a NaN clearance,
        # an infinite one ended in a math domain error or never returned
        case = gen_scenario(3)
        case = replace(case, command=LowCommand(1, None, LowKind.SET_WHEELS,
                                                v_left, v_right, 10))
        with pytest.raises(ValueError, match="non-finite wheel speed"):
            oracle_safety(case)

    @pytest.mark.parametrize("dt_fine", [0.0, -0.002, math.nan])
    def test_non_positive_step_raises(self, dt_fine):
        case = replace(gen_scenario(3), command=LowCommand(
            1, None, LowKind.SET_WHEELS, 0.3, 0.3, 10))
        with pytest.raises(ValueError, match="dt_fine"):
            oracle_safety(case, dt_fine=dt_fine)


# -- array oracle against the reference loop -----------------------------------

_DT_FINE = st.one_of(st.sampled_from([0.001, 0.002]),
                     st.floats(0.0005, 0.05))
_WHEEL = st.floats(-ROBOT.v_wheel_max, ROBOT.v_wheel_max)


@st.composite
def wheel_pairs(draw):
    """Zero, equal, opposite, near-equal (|omega| on either side of the
    1e-9 arc threshold) and unrelated wheel speeds."""
    kind = draw(st.sampled_from(["any", "zero", "equal", "opposite",
                                 "near_equal"]))
    if kind == "zero":
        return 0.0, 0.0
    vl = draw(_WHEEL)
    if kind == "equal":
        return vl, vl
    if kind == "opposite":
        return vl, -vl
    if kind == "near_equal":
        scale = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))
        return vl, vl + scale * 1e-9 * ROBOT.axle
    return vl, draw(_WHEEL)


def landing_hold(steps, dt_fine):
    """The time the reference loop reaches after ``steps`` unclipped steps,
    so a hold of it lands exactly and is not clipped."""
    t = 0.0
    for _ in range(steps):
        t += dt_fine
    return t


class TestArrayOracleMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(
        x=st.floats(-4, 4), y=st.floats(-4, 4),
        theta=st.floats(-100, 100),
        wheels=wheel_pairs(),
        dt_fine=_DT_FINE,
        hold=st.tuples(st.sampled_from(["ticks", "landing", "product"]),
                       st.integers(1, 200)),
    )
    def test_samples_match(self, x, y, theta, wheels, dt_fine, hold):
        # "landing" holds are the loop's own sum of dt_fine, which ends the
        # hold without a clipped step; "product" holds are k * dt_fine,
        # which lands within rounding of that sum, on either side
        kind, count = hold
        hold_s = {"ticks": count * PHYSICS_DT,
                  "landing": landing_hold(count, dt_fine),
                  "product": count * dt_fine}[kind]
        args = (Pose2D(x, y, theta), *wheels, hold_s, dt_fine, ROBOT)
        got = _fine_path(*args)
        want = reference_fine_path(*args)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        wheels=wheel_pairs(),
        dt_fine=_DT_FINE,
        ticks=st.integers(1, 200),
        per_step=st.booleans(),
        on_path=st.integers(0, 3),
    )
    def test_verdicts_match(self, seed, wheels, dt_fine, ticks, per_step,
                            on_path):
        # per_step sets physics_dt = dt_fine, so the hold is ticks * dt_fine;
        # on_path copies samples of the path into the belief, so the least
        # distance is exactly 0 and ties between pairs are common
        case = gen_scenario(seed)
        command = LowCommand(1, None, LowKind.SET_WHEELS, *wheels, ticks)
        physics_dt = dt_fine if per_step else PHYSICS_DT
        points = case.belief.points
        if on_path:
            px, py = reference_fine_path(case.start, *wheels,
                                         ticks * physics_dt, dt_fine, ROBOT)
            pick = random.Random(seed).sample(range(px.shape[0]),
                                              min(on_path, px.shape[0]))
            points = np.vstack((points, np.column_stack((px, py))[pick]))
        case = replace(case, command=command,
                       belief=ObstacleBelief(points=points, built_tick=0))
        got = oracle_safety(case, dt_fine, physics_dt=physics_dt)
        want = reference_oracle_safety(case, dt_fine, physics_dt=physics_dt)
        assert got == want

    def test_generated_cases_match(self):
        for seed in range(300):
            case = gen_scenario(seed)
            assert oracle_safety(case) == reference_oracle_safety(case), \
                f"seed {seed}"


# -- pruned obstacle distance against brute force ------------------------------

def brute_obstacle_min(px, py, points):
    """``hypot`` over every (sample, point) pair."""
    return float(np.min(np.hypot(px[:, None] - points[None, :, 0],
                                 py[:, None] - points[None, :, 1])))


@st.composite
def paths_and_clouds(draw):
    """A sample path and a belief cloud around it, both scaled together.

    Paths are stationary (zero wheels) or random walks of 1 to about 1,000
    samples. Clouds are random, copies of samples (duplicates included, so
    several pairs tie at 0), on the edges of the whole path's bounding box,
    or moved 1e6 m away. A scale of 1e-160 or 1e-200 puts every square at
    or below the underflow floor.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x, y, theta = (draw(st.floats(-4, 4)) for _ in range(3))
        px, py = _fine_path(Pose2D(x, y, theta), 0.0, 0.0,
                            draw(st.integers(1, 200)) * PHYSICS_DT, 0.002,
                            ROBOT)
    else:
        n = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 1000))
        step = draw(st.sampled_from([1e-3, 1e-2, 0.1]))
        px = np.cumsum(rng.normal(0.0, step, n))
        py = np.cumsum(rng.normal(0.0, step, n))
    m = draw(st.integers(1, 40))
    cloud = draw(st.sampled_from(["random", "on_path", "box_edge", "far"]))
    points = rng.uniform(-4.0, 4.0, (m, 2))
    if cloud == "on_path":
        pick = rng.integers(0, px.shape[0], m)
        points[: m // 2 + 1] = np.column_stack((px, py))[pick][: m // 2 + 1]
    elif cloud == "box_edge":
        box = [(a.min(), a.max()) for a in (px, py)]
        on_edge = [rng.choice(edges, m) for edges in box]
        across = [rng.uniform(lo - 0.01, hi + 0.01, m) for lo, hi in box]
        on_x = rng.random(m) < 0.5  # on an x edge, else on a y edge
        points = np.column_stack((np.where(on_x, on_edge[0], across[0]),
                                  np.where(on_x, across[1], on_edge[1])))
    elif cloud == "far":
        points += 1e6
    scale = draw(st.sampled_from([1.0, 1.0, 1e-160, 1e-200]))
    return px * scale, py * scale, points * scale


class TestPrunedObstacleMin:
    @settings(max_examples=400, deadline=None)
    @given(paths_and_clouds())
    def test_matches_brute_force(self, drawn):
        px, py, points = drawn
        assert _obstacle_min(px, py, points) == \
            brute_obstacle_min(px, py, points)

    def test_nearest_point_mid_path(self):
        # a straight run from (-2, 0) to (2, 0): the point above its middle
        # is 0.1 m from the path yet about 2 m from either end, while the
        # decoys sit closer to the ends than it does
        px = np.linspace(-2.0, 2.0, 801)
        py = np.zeros(801)
        points = np.array([[0.0, 0.1], [-2.3, 0.0], [2.0, -0.4],
                           [0.0, 3.0]])
        assert _obstacle_min(px, py, points) == \
            brute_obstacle_min(px, py, points) == 0.1

    def test_underflowed_upper_bound_keeps_subnormal_pairs(self):
        # on a stationary path at the origin, (1.5e-162, 1.5e-162) squares to
        # 0 + 0 and gives the upper bound 0, while (1.6e-162, 0) squares to
        # the least subnormal: its box gap is not 0, yet its hypot is least
        px = py = np.zeros(150)
        points = np.array([[1.5e-162, 1.5e-162], [1.6e-162, 0.0]])
        assert _obstacle_min(px, py, points) == 1.6e-162 == \
            brute_obstacle_min(px, py, points)


class TestAgreementReport:
    def safe(self, clearance=1.0):
        return SafetyVerdict(True, clearance, VerdictReason.OK)

    def unsafe(self, clearance=0.0):
        return SafetyVerdict(False, clearance, VerdictReason.OBSTACLE_PREDICTED)

    def cases(self, n):
        return [gen_scenario(s) for s in range(n)]

    def test_identical_lists_all_agree(self):
        cases = self.cases(3)
        verdicts = [self.safe(), self.unsafe(), self.safe()]
        rep = agreement_report(cases, verdicts, verdicts)
        assert rep.agreements == rep.total == 3
        assert rep.mismatches == [] and rep.excluded_boundary == 0

    def test_flipped_verdict_counts_once(self):
        cases = self.cases(3)
        checker = [self.safe(), self.safe(1.0), self.safe()]
        oracle = [self.safe(), self.unsafe(0.0), self.safe()]
        rep = agreement_report(cases, checker, oracle)
        assert rep.agreements == 2
        assert rep.mismatches == [cases[1].seed]
        assert rep.false_approvals == 1 and rep.false_refusals == 0

    def test_boundary_band_excluded(self):
        cases = self.cases(1)
        rep = agreement_report(cases, [self.safe(0.205)],
                               [self.unsafe(0.195)])
        assert rep.excluded_boundary == 1
        assert rep.mismatches == [] and rep.agreements == 0
        assert rep.total == rep.agreements + len(rep.mismatches) \
            + rep.excluded_boundary

    def test_conservative_direction_classified(self):
        cases = self.cases(1)
        rep = agreement_report(cases, [self.unsafe(0.1)], [self.safe(0.5)])
        assert rep.false_refusals == 1 and rep.false_approvals == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            agreement_report(self.cases(2), [self.safe()], [self.safe()])


class TestCheckerIsNeverOptimistic:
    def test_approved_commands_hold_clearance_under_oracle(self):
        # predictive soundness: an approved SET_WHEELS, replayed against the
        # belief by the fine oracle, keeps d_min - 0.02 of body clearance
        for seed in range(250):
            case = gen_scenario(seed)
            if case.command.kind is not LowKind.SET_WHEELS:
                continue
            verdict = safety_check(case.command, case.start, case.belief,
                                   case.world.bounds, ROBOT, PARAMS, 0,
                                   PHYSICS_DT)
            if not verdict.safe:
                continue
            fine = oracle_safety(case, dt_fine=0.001)
            assert fine.predicted_min_clearance >= PARAMS.d_min - 0.02, \
                f"seed {seed}: approved but oracle sees " \
                f"{fine.predicted_min_clearance:.4f}"
