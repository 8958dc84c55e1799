"""The three benchmark workloads: seeded inputs, checked operations, digests.

Each workload turns a benchmark seed into a fixed list of inputs (one
*pass*), and runs a pass as a sequence of operations. An operation is one
``run_sim`` run on ``hallucinate`` and ``dropout`` and one judged case on
``verify``. Every operation yields a digest of its simulated outcome and the
list of checks it failed, so a pass can be repeated and compared.

Program functions are called through their modules (``runner.run_sim``,
``oracle.oracle_safety``...) so that the tracer's in-place wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import thread_time_ns
from typing import Callable

from instinctsim import instinct, oracle, runner, scenario, trace
from instinctsim.config import PHYSICS_DT, InstinctParams, RobotParams
from instinctsim.messages import LowKind

ROBOT = RobotParams()
PARAMS = InstinctParams()


def derived_seed(workload: str, seed: int, index: int) -> int:
    """Input seed for item ``index`` of a workload's pass."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Outcome:
    """One operation's result: simulated ticks (0 for a case), a digest of
    everything it decided, failed checks, and the figures the quality
    metrics are built from."""

    ticks: int
    digest: str
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


@contextmanager
def timed_ticks(samples: list[int]):
    """Record the CPU time of every ``InstinctController.tick`` call."""
    cls = instinct.InstinctController
    original = vars(cls)["tick"]

    def tick(self, now):
        t0 = thread_time_ns()
        original(self, now)
        samples.append(thread_time_ns() - t0)

    cls.tick = tick
    try:
        yield
    finally:
        cls.tick = original


def _replay_digest(metrics):
    return hashlib.sha256(
        json.dumps(metrics.replay_dict(), sort_keys=True).encode())


class SimWorkload:
    """Closed-loop runs of generated scenarios, back to back."""

    op_unit = "tick"

    def __init__(self, name: str, size: int, scenario_kwargs: dict,
                 store_trace: bool, work_dir: str) -> None:
        self.name = name
        self.size = size
        self.scenario_kwargs = scenario_kwargs
        self.store_trace = store_trace
        self.work_dir = work_dir

    def inputs(self, seed: int) -> list:
        return [scenario.random_scenario(derived_seed(self.name, seed, i),
                                         **self.scenario_kwargs)
                for i in range(self.size)]

    def warm_up(self, inputs: list) -> None:
        runner.run_sim(dataclasses.replace(inputs[0], ticks=100),
                       store_trace=self.store_trace)

    def run_pass(self, inputs: list, begin_op: Callable[[], None],
                 latency: list[int] | None = None
                 ) -> tuple[list[Outcome], list[str]]:
        """Run every scenario; ``latency`` collects instinct tick CPU times."""
        outcomes = []
        with timed_ticks(latency) if latency is not None else nullcontext():
            for sc in inputs:
                begin_op()
                try:
                    outcomes.append(self._run(sc))
                except Exception as exc:  # a failed operation, not a crash
                    outcomes.append(Outcome(0, "", [f"{sc.name}: {exc!r}"]))
        return outcomes, []

    def _run(self, sc) -> Outcome:
        auditor = trace.TraceAuditor()
        events, metrics = runner.run_sim(sc, store_trace=self.store_trace,
                                         sinks=[auditor])
        failures = [f"{sc.name}: {v}" for v in auditor.finish()]
        if metrics.collisions:
            failures.append(f"{sc.name}: {metrics.collisions} collision(s)")
        digest = _replay_digest(metrics)
        if self.store_trace:
            failures += self._round_trip(sc, events, metrics, digest)
        return Outcome(
            ticks=metrics.ticks,
            digest=digest.hexdigest(),
            failures=failures,
            info={"completed": metrics.tasks_completed,
                  "issued": len(sc.tasks),
                  "ticks": metrics.ticks,
                  "min_clearance": metrics.min_ground_truth_clearance},
        )

    def _round_trip(self, sc, events, metrics, digest) -> list[str]:
        """Stored-trace checks: an instinct status every tick, and metrics
        recomputed from the written trace equal to the live ones."""
        failures = []
        status_ticks = [e.tick for e in events
                        if e.layer == "INSTINCT" and e.kind == "status"]
        if status_ticks != list(range(metrics.ticks)):
            failures.append(f"{sc.name}: instinct status missing on a tick")
        path = os.path.join(self.work_dir, "trace.jsonl")
        trace.write_trace(events, path)
        with open(path, "rb") as fh:
            digest.update(fh.read())
        replayed = trace.recompute_metrics(trace.read_trace(path))
        if replayed.replay_dict() != metrics.replay_dict():
            failures.append(f"{sc.name}: recomputed metrics differ from live")
        os.remove(path)
        return failures

    def quality(self, outcomes: list[Outcome]) -> dict[str, float]:
        infos = [o.info for o in outcomes if o.info]
        done = [(i["ticks"] - 1) * PHYSICS_DT for i in infos if i["completed"]]
        out = {
            "task_completion_rate": (sum(i["completed"] for i in infos)
                                     / sum(i["issued"] for i in infos)),
            "min_clearance_m": min(i["min_clearance"] for i in infos),
        }
        if done:  # the one task is issued at tick 0
            out["task_sim_s_p50"] = statistics.median(done)
        return out


class VerifyWorkload:
    """Generated check cases judged by the checker and the oracle."""

    op_unit = "case"
    name = "verify"

    def __init__(self, size: int) -> None:
        self.size = size

    def inputs(self, seed: int) -> list:
        return [oracle.gen_scenario(derived_seed(self.name, seed, i))
                for i in range(self.size)]

    def warm_up(self, inputs: list) -> None:
        for case in inputs[:50]:
            self._check(case)
            oracle.oracle_safety(case)

    @staticmethod
    def _check(case):
        return instinct.safety_check(case.command, case.start, case.belief,
                                     case.world.bounds, ROBOT, PARAMS, 0,
                                     PHYSICS_DT)

    def run_pass(self, inputs: list, begin_op: Callable[[], None],
                 latency: list[int] | None = None
                 ) -> tuple[list[Outcome], list[str]]:
        """Judge every case; ``latency`` collects checker CPU times."""
        outcomes = []
        checker = []
        judged = []
        for case in inputs:
            begin_op()
            t0 = thread_time_ns()
            verdict = self._check(case)
            if latency is not None:
                latency.append(thread_time_ns() - t0)
            truth = oracle.oracle_safety(case)
            checker.append(verdict)
            judged.append(truth)
            outcomes.append(self._outcome(case, verdict, truth))
        begin_op()
        report = oracle.agreement_report(inputs, checker, judged)
        false_approvals = sum(o.info["false_approval"] for o in outcomes)
        problems = []
        if report.false_approvals != false_approvals:
            problems.append(f"agreement_report counts {report.false_approvals}"
                            f" false approvals, cases show {false_approvals}")
        if report.total != (report.agreements + len(report.mismatches)
                            + report.excluded_boundary):
            problems.append("agreement_report totals do not add up")
        return outcomes, problems

    def _outcome(self, case, verdict, truth) -> Outcome:
        in_band = abs(truth.predicted_min_clearance - PARAMS.d_min) \
            < oracle.BOUNDARY_BAND
        false_approval = verdict.safe and not truth.safe and not in_band
        failures = [f"case {case.seed}: false approval"] if false_approval \
            else []
        record = [verdict.safe, verdict.predicted_min_clearance,
                  verdict.reason.value, truth.safe,
                  truth.predicted_min_clearance, truth.reason.value]
        digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
        motion = case.command.kind is LowKind.SET_WHEELS
        return Outcome(ticks=0, digest=digest, failures=failures, info={
            "judged": not in_band,
            "false_approval": false_approval,
            "false_refusal": (not in_band and truth.safe
                              and not verdict.safe),
            "approved_clearance": (truth.predicted_min_clearance
                                   if motion and verdict.safe else math.inf),
        })

    def quality(self, outcomes: list[Outcome]) -> dict[str, float]:
        infos = [o.info for o in outcomes]
        judged = sum(i["judged"] for i in infos)
        return {
            "false_refusal_rate": (sum(i["false_refusal"] for i in infos)
                                   / judged),
            "min_clearance_m": min(i["approved_clearance"] for i in infos),
        }


def make(name: str, work_dir: str):
    """The named workload. Sizes set one pass; see README.md for why."""
    if name == "hallucinate":
        return SimWorkload(name, 32, {
            "backend": "hallucinate", "hallucination_probability": 0.3,
            "ticks": 2000}, store_trace=False, work_dir=work_dir)
    if name == "dropout":
        return SimWorkload(name, 12, {
            "backend": "rule", "hallucination_probability": 0.0,
            "ticks": 3500, "roaming": True, "kill_tick": 500,
            "min_separation": 3.0}, store_trace=True, work_dir=work_dir)
    if name == "verify":
        return VerifyWorkload(1500)
    raise ValueError(f"unknown workload: {name}")


WORKLOADS = ("hallucinate", "dropout", "verify")
