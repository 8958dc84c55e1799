"""Run harness: the external layer, the tick loop, and metrics assembly.

Both run modes build one ``Runtime`` (``build_runtime``), drive the same
two steps of it and return its ``result()``. ``step(now)`` issues the
tasks due at ``now`` (external layer), steps the device and runs the
instinct; ``agent_step(now)`` wakes the agent unless it is dead, and an
exception out of the agent is its death at that tick; a dead agent's inbox
is drained unread. Deterministic mode calls both on logical ticks inside
one thread, the agent at its period.
Live mode calls ``step`` from an instinct thread paced by the wall clock
and ``agent_step`` from an agent thread; only channels cross threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .agent import DecisionAgent, LlmBackend, Task
from .bus import Channel
from .config import derive_rng
from .instinct import InstinctController
from .scenario import Scenario
from .trace import MetricsAccumulator, RunMetrics, TraceEvent, TraceRecorder
from .world import DeviceSim, RobotState


@dataclass
class Runtime:
    """Everything one run needs, fully built from a scenario, and the loop
    state both run modes advance: tasks issued so far, the instinct tick
    times and the tick the agent died at (if any). ``accumulator``, the
    recorder's first sink, gathers the run's metrics."""

    scenario: Scenario
    device: DeviceSim
    instinct: InstinctController
    agent: DecisionAgent
    recorder: TraceRecorder
    task_channel: Channel
    accumulator: MetricsAccumulator
    death_tick: int | None = None
    issued: int = 0
    tick_times: list[int] = field(default_factory=list)

    def agent_alive(self, now: int) -> bool:
        return self.death_tick is None or now < self.death_tick

    def step(self, now: int) -> None:
        """External, device and instinct layers for tick ``now``: issue the
        due tasks, step the physics under the device's wheel command (the DEVICE
        state event carries the step's ground-truth clearance; the collision
        event marks the tick the latch first sets), then the timed instinct
        tick."""
        sc = self.scenario
        self.recorder.begin_tick(now)
        for spec in sc.tasks:
            if spec.issue_tick == now:
                self.issued += 1
                task = Task(self.issued, spec.goal)
                self.recorder.emit("EXTERNAL", "task_issued", task.to_payload())
                self.task_channel.transmit(task, now)
        was_collided = self.device.state.collided
        state = self.device.step(sc.dt)
        self.recorder.emit("DEVICE", "state", {
            "x": state.pose.x, "y": state.pose.y, "theta": state.pose.theta,
            "v_left": state.v_left, "v_right": state.v_right,
            "load": state.load, "clearance": self.device.ground_truth_clearance(),
            "collided": state.collided,
        })
        if state.collided and not was_collided:
            self.recorder.emit("DEVICE", "collision",
                               {"x": state.pose.x, "y": state.pose.y})
        t0 = time.perf_counter_ns()
        self.instinct.tick(now)
        self.tick_times.append(time.perf_counter_ns() - t0)

    def agent_step(self, now: int) -> None:
        """Decision layer at ``now`` unless dead. An exception out of the
        agent is traced and kills it at ``now``, as ``kill_tick`` would.
        A dead agent's inbox is drained: what is due on its task, feedback
        and data channels is dropped unread, so nothing piles up."""
        if not self.agent_alive(now):
            agent = self.agent
            for channel in (agent.task_channel, agent.feedback_channel,
                            agent.data_channel):
                channel.poll(now)
            return
        try:
            self.agent.tick(now)
        except Exception as exc:  # noqa: BLE001 - any agent fault is its death
            self.recorder.emit("DECISION", "agent_crashed",
                               {"error": f"{type(exc).__name__}: {exc}"})
            self.death_tick = now

    def finished(self, now: int) -> bool:
        """Every task issued, received and terminal while the agent lives."""
        return (self.agent_alive(now)
                and self.issued == len(self.scenario.tasks)
                and not self.task_channel.pending()
                and self.agent.all_tasks_terminal())

    def result(self) -> tuple[list[TraceEvent], RunMetrics]:
        """The trace (empty if not stored) and the metrics, with the
        instinct tick timing."""
        metrics = self.accumulator.metrics
        metrics.timing = _timing_stats(self.tick_times)
        return self.recorder.events, metrics


def build_runtime(
    scenario: Scenario,
    store_trace: bool = True,
    sinks: list[Callable[[TraceEvent], None]] | None = None,
) -> Runtime:
    seed = scenario.seed
    accumulator = MetricsAccumulator()
    recorder = TraceRecorder(store=store_trace,
                             sinks=[accumulator] + list(sinks or []))
    noise_rng = (derive_rng(seed, "lidar_noise")
                 if scenario.lidar.noise_std > 0 else None)
    device = DeviceSim(
        scenario.world,
        RobotState(pose=scenario.start),
        scenario.robot,
        scenario.lidar,
        noise_rng=noise_rng,
    )
    ch = scenario.channels

    def trace_drop(channel_name: str, msg) -> None:
        recorder.emit("BUS", "dropped", {"channel": channel_name,
                                         "msg": type(msg).__name__,
                                         "id": getattr(msg, "id", None)})

    def lossy(name: str, latency: int, drop: float, stream: str) -> Channel:
        """A channel that draws from the seeded ``stream`` only when it can
        drop, and traces each drop."""
        rng = derive_rng(seed, stream) if drop > 0 else None
        return Channel(name, latency, drop, rng, on_drop=trace_drop)

    task_channel = Channel("external.task", ch.task_latency)
    command_channel = lossy("agent.command", ch.command_latency,
                            ch.command_drop, "channel.command")
    feedback_channel = lossy("instinct.feedback", ch.feedback_latency,
                             ch.feedback_drop, "channel.feedback")
    data_channel = lossy("instinct.data", ch.data_latency, ch.data_drop,
                         "channel.data")
    instinct = InstinctController(
        device=device,
        command_channel=command_channel,
        feedback_channel=feedback_channel,
        data_channel=data_channel,
        recorder=recorder,
        params=scenario.instinct,
        physics_dt=scenario.dt,
        roam_rng=derive_rng(seed, "roam"),
    )
    agent = DecisionAgent(
        task_channel=task_channel,
        command_channel=command_channel,
        feedback_channel=feedback_channel,
        data_channel=data_channel,
        recorder=recorder,
        robot=scenario.robot,
        params=scenario.agent,
        bounds=scenario.world.bounds,
        hallucination_rng=derive_rng(seed, "hallucinate"),
        llm=(LlmBackend(model=scenario.agent.llm_model)
             if scenario.agent.backend == "llm" else None),
    )
    return Runtime(scenario, device, instinct, agent, recorder, task_channel,
                   accumulator, death_tick=scenario.agent.kill_tick)


def _timing_stats(samples_ns: list[int]) -> dict:
    arr = np.array(samples_ns, dtype=float) / 1e6  # ms
    if arr.size == 0:
        return {"ticks": 0}
    return {
        "ticks": int(arr.size),
        "mean_ms": float(arr.mean()),
        "p50_ms": float(np.percentile(arr, 50)),
        "p99_ms": float(np.percentile(arr, 99)),
        "max_ms": float(arr.max()),
    }


def run_sim(
    scenario: Scenario,
    store_trace: bool = True,
    sinks: list[Callable[[TraceEvent], None]] | None = None,
) -> tuple[list[TraceEvent], RunMetrics]:
    """Deterministic run; returns the trace (empty if not stored) and metrics.

    Per tick: ``step``, then ``agent_step`` at the agent period. The run
    ends at the tick budget or as soon as every task is issued, received
    and terminal while the agent lives.
    """
    rt = build_runtime(scenario, store_trace=store_trace, sinks=sinks)
    for now in range(scenario.ticks):
        rt.step(now)
        if now % scenario.agent.period_ticks == 0:
            rt.agent_step(now)
        if rt.finished(now):
            break
    return rt.result()


def run_live(
    scenario: Scenario,
    store_trace: bool = True,
    sinks: list[Callable[[TraceEvent], None]] | None = None,
) -> tuple[list[TraceEvent], RunMetrics]:
    """Wall-clock run: instinct and agent in separate threads.

    The instinct thread steps every tick on a ``dt`` deadline and publishes
    the last completed tick; the agent thread wakes once per agent period
    and steps the agent at that tick. Excluded from determinism guarantees
    by design.
    """
    rt = build_runtime(scenario, store_trace=store_trace, sinks=sinks)
    stop = threading.Event()
    last_tick = -1

    def instinct_loop() -> None:
        nonlocal last_tick
        next_deadline = time.monotonic()
        for now in range(scenario.ticks):
            if stop.is_set():
                break
            rt.step(now)
            last_tick = now
            next_deadline += scenario.dt
            delay = next_deadline - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        stop.set()

    def agent_loop() -> None:
        period_s = scenario.agent.period_ticks * scenario.dt
        while not stop.is_set():
            now = last_tick
            if now >= 0:
                rt.agent_step(now)
                if rt.finished(now):
                    stop.set()
                    return
            time.sleep(period_s)

    instinct_thread = threading.Thread(target=instinct_loop, daemon=True)
    agent_thread = threading.Thread(target=agent_loop, daemon=True)
    instinct_thread.start()
    agent_thread.start()
    instinct_thread.join()
    agent_thread.join(timeout=5.0)
    return rt.result()
