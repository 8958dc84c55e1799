"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines
and timing. Criteria 1, 2, and 4 share their run artifacts with criterion 5
through module-scoped fixtures, so the ordering audit covers exactly the
traces those criteria produced.
"""

import math
import random
import time

import numpy as np
import pytest

from instinctsim.config import InstinctParams, PHYSICS_DT, RobotParams
from instinctsim.instinct import safety_check
from instinctsim.messages import Goal, GoalKind
from instinctsim.oracle import agreement_report, gen_scenario, oracle_safety
from instinctsim.runner import run_sim
from instinctsim.scenario import Scenario, TaskSpec, random_scenario
from instinctsim.trace import TraceAuditor, TraceEvent
from instinctsim.world import (
    Pose2D,
    Rect,
    WorldModel,
    beam_distances,
    clearance,
    step_kinematics,
    wrap_angle,
)

ROBOT = RobotParams()
PARAMS = InstinctParams()


class StatusTicks:
    """Sink recording which ticks produced an instinct status event."""

    def __init__(self) -> None:
        self.ticks = []

    def __call__(self, event: TraceEvent) -> None:
        if event.layer == "INSTINCT" and event.kind == "status":
            self.ticks.append(event.tick)


@pytest.fixture(scope="module")
def hallucination_runs():
    """Criterion 1 workload: 100 seeded scenarios at hallucination p=0.3."""
    results = []
    violations = []
    t0 = time.perf_counter()
    for seed in range(100):
        sc = random_scenario(seed, backend="hallucinate",
                             hallucination_probability=0.3, ticks=2000)
        auditor = TraceAuditor()
        _, metrics = run_sim(sc, store_trace=False, sinks=[auditor])
        violations.extend(auditor.finish())
        results.append(metrics)
    wall = time.perf_counter() - t0
    return results, violations, wall


@pytest.fixture(scope="module")
def dropout_runs():
    """Criterion 2 workload: agent killed at tick 500, 3000 more ticks.

    Seeds whose task goes terminal before the kill tick do not put the kill
    mid-traverse, so the first 20 qualifying seeds are selected (probed
    deterministically, in order).
    """
    results = []
    violations = []
    status_sinks = []
    probed = 0
    for seed in range(200, 260):
        probed += 1
        sc = random_scenario(seed, backend="rule",
                             hallucination_probability=0.0, ticks=3500,
                             roaming=True, kill_tick=500, min_separation=3.0)
        auditor = TraceAuditor()
        status = StatusTicks()
        _, metrics = run_sim(sc, store_trace=False, sinks=[auditor, status])
        assert metrics.collisions == 0, f"collision in probe seed {seed}"
        if metrics.ticks != 3500:
            continue  # task terminal before the kill: not mid-traverse
        violations.extend(auditor.finish())
        results.append(metrics)
        status_sinks.append(status)
        if len(results) == 20:
            break
    assert len(results) == 20, \
        f"only {len(results)} mid-traverse scenarios in {probed} probes"
    return results, violations, status_sinks


def baseline_scenario():
    return Scenario(
        name="baseline",
        seed=0,
        ticks=6000,
        world=WorldModel(bounds=Rect(-4.0, -4.0, 4.0, 4.0)),
        start=Pose2D(0.0, 0.0, 0.0),
        tasks=(TaskSpec(0, Goal(GoalKind.GOTO, ((3.0, 2.0),))),),
    )


@pytest.fixture(scope="module")
def baseline_runs():
    """Criterion 4 workload: the empty-world GOTO, three repetitions."""
    runs = []
    violations = []
    for _ in range(3):
        auditor = TraceAuditor()
        trace, metrics = run_sim(baseline_scenario(), sinks=[auditor])
        violations.extend(auditor.finish(allow_in_flight=False))
        serialized = "\n".join(e.to_json() for e in trace)
        runs.append((trace, metrics, serialized))
    return runs, violations


def test_criterion_1_hallucination_resilience(hallucination_runs):
    results, _, wall = hallucination_runs
    min_clearance = min(m.min_ground_truth_clearance for m in results)
    collisions = sum(m.collisions for m in results)
    refusals = sum(m.refusals for m in results)
    hallucinated = sum(m.hallucinated_commands for m in results)
    ok = min_clearance >= 0.10 and collisions == 0 and refusals >= 1
    print(f"\n[criterion 1] {'PASS' if ok else 'FAIL'} — 100 runs, "
          f"min clearance {min_clearance:.3f} m, collisions {collisions}, "
          f"refusals {refusals}, hallucinated {hallucinated}, "
          f"wall {wall:.1f} s")
    assert hallucinated >= 1, "injector never fired"
    assert refusals >= 1, "no refusal observed in aggregate"
    assert collisions == 0
    assert min_clearance >= 0.10, \
        f"ground-truth clearance dipped to {min_clearance:.3f} m"


def test_criterion_2_agent_dropout(dropout_runs):
    results, _, status_sinks = dropout_runs
    collisions = sum(m.collisions for m in results)
    full_runs = sum(1 for m in results if m.ticks == 3500)
    gapless = all(s.ticks == list(range(3500)) for s in status_sinks)
    ok = collisions == 0 and full_runs == len(results) and gapless
    print(f"\n[criterion 2] {'PASS' if ok else 'FAIL'} — 20 dropout runs, "
          f"collisions {collisions}, full-length {full_runs}/20, "
          f"instinct events every tick: {gapless}")
    assert full_runs == len(results), "a run ended before the 3500-tick budget"
    assert collisions == 0
    assert gapless, "instinct trace has tick gaps after the agent died"


def test_criterion_3_oracle_agreement():
    t0 = time.perf_counter()
    cases = [gen_scenario(seed) for seed in range(1000)]
    checker = [
        safety_check(c.command, c.start, c.belief, c.world.bounds, ROBOT,
                     PARAMS, 0, PHYSICS_DT)
        for c in cases
    ]
    oracle = [oracle_safety(c) for c in cases]
    report = agreement_report(cases, checker, oracle)
    wall = time.perf_counter() - t0
    unsafe_total = sum(not v.safe for v in oracle)
    ok = (report.false_approvals == 0
          and report.false_refusals <= 0.05 * report.total)
    print(f"\n[criterion 3] {'PASS' if ok else 'FAIL'} — "
          f"{report.to_text()}, oracle-unsafe {unsafe_total}, "
          f"wall {wall:.1f} s")
    assert report.total == report.agreements + len(report.mismatches) \
        + report.excluded_boundary
    assert report.false_approvals == 0, \
        f"optimistic mismatches at seeds {report.mismatches}"
    assert report.false_refusals <= 0.05 * report.total
    assert wall < 30.0, f"agreement run took {wall:.1f} s (budget 30 s)"


def test_criterion_4_baseline_task(baseline_runs):
    runs, _ = baseline_runs
    trace, metrics, _ = runs[0]
    final = [e for e in trace
             if e.layer == "DEVICE" and e.kind == "state"][-1].payload
    distance = math.hypot(final["x"] - 3.0, final["y"] - 2.0)
    identical = (runs[0][2] == runs[1][2] == runs[2][2])
    ok = (metrics.tasks_completed == 1 and metrics.ticks <= 6000
          and distance <= 0.1 and identical)
    print(f"\n[criterion 4] {'PASS' if ok else 'FAIL'} — completed in "
          f"{metrics.ticks} ticks, final distance {distance:.3f} m, "
          f"3 runs byte-identical: {identical}")
    assert metrics.tasks_completed == 1
    assert metrics.ticks <= 6000
    assert distance <= 0.1
    assert identical, "baseline trace differs across repeated runs"


def test_criterion_5_loop_order_invariant(hallucination_runs, dropout_runs,
                                          baseline_runs):
    all_violations = (hallucination_runs[1] + dropout_runs[1]
                      + baseline_runs[1])
    ok = not all_violations
    print(f"\n[criterion 5] {'PASS' if ok else 'FAIL'} — trace audit over "
          f"criteria 1/2/4 runs: {len(all_violations)} violations")
    assert all_violations == [], all_violations[:10]


def test_criterion_6_latency_budget():
    # report-only per the latency criterion: documented, not CI-gating
    sc = random_scenario(6, backend="hallucinate",
                         hallucination_probability=0.3, ticks=3000,
                         roaming=True)
    _, metrics = run_sim(sc, store_trace=False)
    p99 = metrics.timing["p99_ms"]
    within = p99 <= 1.0
    print(f"\n[criterion 6] {'PASS' if within else 'REPORT-ONLY MISS'} — "
          f"instinct tick p99 {p99:.3f} ms (target <= 1 ms, "
          f"p50 {metrics.timing['p50_ms']:.3f} ms, "
          f"max {metrics.timing['max_ms']:.3f} ms)")
    # generous guard so only pathological regressions fail the suite
    assert p99 <= 20.0, f"instinct tick p99 {p99:.1f} ms is pathological"


def test_criterion_7_backend_equivalence():
    mismatched = []
    for seed in range(10):
        rule_sc = random_scenario(seed, backend="rule",
                                  hallucination_probability=0.0, ticks=1200)
        wrapped_sc = random_scenario(seed, backend="hallucinate",
                                     hallucination_probability=0.0,
                                     ticks=1200)
        rule_trace, _ = run_sim(rule_sc)
        wrapped_trace, _ = run_sim(wrapped_sc)
        if [e.to_json() for e in rule_trace] != \
                [e.to_json() for e in wrapped_trace]:
            mismatched.append(seed)
    ok = not mismatched
    print(f"\n[criterion 7] {'PASS' if ok else 'FAIL'} — "
          f"HALLUCINATE(rule, p=0) identical to rule for 10 seeds "
          f"(mismatches: {mismatched})")
    assert mismatched == []


def test_criterion_8_kinematics_micro_oracle():
    rng = random.Random(81)
    worst_pos = 0.0
    worst_ang = 0.0
    for _ in range(1000):
        pose = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5),
                      rng.uniform(-math.pi, math.pi))
        vl = rng.uniform(-0.5, 0.5)
        vr = rng.uniform(-0.5, 0.5)
        dt = rng.uniform(1e-4, 0.01)
        got = step_kinematics(pose, vl, vr, ROBOT.axle, dt)
        # independent oracle: 100x finer explicit Euler
        x, y, th = pose.x, pose.y, pose.theta
        v = 0.5 * (vl + vr)
        omega = (vr - vl) / ROBOT.axle
        h = dt / 100
        for _ in range(100):
            x += v * math.cos(th) * h
            y += v * math.sin(th) * h
            th += omega * h
        worst_pos = max(worst_pos, math.hypot(got.x - x, got.y - y))
        worst_ang = max(worst_ang, abs(wrap_angle(got.theta - th)))
    ok = worst_pos < 1e-4 and worst_ang < 1e-4
    print(f"\n[criterion 8a] {'PASS' if ok else 'FAIL'} — kinematics vs "
          f"fine Euler over 1000 inputs: worst {worst_pos:.2e} m, "
          f"{worst_ang:.2e} rad")
    assert worst_pos < 1e-4
    assert worst_ang < 1e-4


def test_criterion_8_raycast_micro_oracle():
    rng = random.Random(82)
    worlds = [gen_scenario(seed).world for seed in range(10)]
    checked = 0
    worst = 0.0
    while checked < 1000:
        world = worlds[rng.randrange(len(worlds))]
        ox = rng.uniform(-3.9, 3.9)
        oy = rng.uniform(-3.9, 3.9)
        if clearance(world, ox, oy) <= 1e-3:
            continue
        angle = rng.uniform(-math.pi, math.pi)
        got = min(beam_distances(world, ox, oy, np.array([angle]))[0], 5.0)
        # marching oracle with clearance-sized steps floored at 1e-4
        t = 0.0
        dx, dy = math.cos(angle), math.sin(angle)
        want = 5.0
        while t <= 5.0:
            c = clearance(world, ox + t * dx, oy + t * dy)
            if c <= 0.0:
                want = t
                break
            t += max(c, 1e-4)
        worst = max(worst, abs(got - want))
        checked += 1
    ok = worst < 1e-3
    print(f"\n[criterion 8b] {'PASS' if ok else 'FAIL'} — raycast vs "
          f"marching oracle over 1000 rays: worst {worst:.2e} m")
    assert worst < 1e-3
