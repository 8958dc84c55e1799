"""Run harness: the external layer, the tick loop, and metrics assembly.

Deterministic mode advances all layers on logical ticks inside one thread:
per tick the device steps, the instinct runs, and the agent wakes at its
period. Live mode gives the instinct and agent their own threads paced by
the wall clock; only channels cross threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .agent import DecisionAgent, GoalKind, LlmBackend, Task
from .bus import Channel, MemoryLog
from .config import AgentParams, derive_rng
from .instinct import InstinctController
from .scenario import Scenario, TaskSpec
from .trace import MetricsAccumulator, RunMetrics, TraceEvent, TraceRecorder
from .world import DeviceSim, RobotState


@dataclass
class Runtime:
    """Everything one run needs, fully built from a scenario."""

    scenario: Scenario
    device: DeviceSim
    instinct: InstinctController
    agent: DecisionAgent
    recorder: TraceRecorder
    memory: MemoryLog
    task_channel: Channel


def build_runtime(
    scenario: Scenario,
    store_trace: bool = True,
    sinks: list[Callable[[TraceEvent], None]] | None = None,
) -> Runtime:
    seed = scenario.seed
    recorder = TraceRecorder(store=store_trace, sinks=sinks)
    memory = MemoryLog()
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

    task_channel = Channel("external.task", ch.task_latency)
    command_channel = Channel(
        "agent.command", ch.command_latency, ch.command_drop,
        derive_rng(seed, "channel.command") if ch.command_drop > 0 else None,
        on_drop=trace_drop)
    feedback_channel = Channel(
        "instinct.feedback", ch.feedback_latency, ch.feedback_drop,
        derive_rng(seed, "channel.feedback") if ch.feedback_drop > 0 else None,
        on_drop=trace_drop)
    data_channel = Channel(
        "instinct.data", ch.data_latency, ch.data_drop,
        derive_rng(seed, "channel.data") if ch.data_drop > 0 else None,
        on_drop=trace_drop)
    instinct = InstinctController(
        device=device,
        command_channel=command_channel,
        feedback_channel=feedback_channel,
        data_channel=data_channel,
        memory=memory,
        recorder=recorder,
        params=scenario.instinct,
        physics_dt=scenario.dt,
        roam_rng=derive_rng(seed, "roam"),
    )
    b = scenario.world.bounds
    agent = DecisionAgent(
        task_channel=task_channel,
        command_channel=command_channel,
        feedback_channel=feedback_channel,
        data_channel=data_channel,
        memory=memory,
        recorder=recorder,
        robot=scenario.robot,
        params=AgentParams(period_ticks=scenario.agent.period_ticks),
        bounds_span=(b.x0, b.y0, b.x1, b.y1),
        backend=scenario.agent.backend,
        hallucination_probability=scenario.agent.hallucination_probability,
        hallucination_rng=derive_rng(seed, "hallucinate"),
        llm=(LlmBackend(model=scenario.agent.llm_model)
             if scenario.agent.backend == "llm" else None),
        lidar_max_range=scenario.lidar.max_range,
    )
    return Runtime(scenario, device, instinct, agent, recorder, memory,
                   task_channel)


def _task_from_spec(spec: TaskSpec, task_id: int) -> Task:
    if spec.kind == "GOTO":
        return Task(task_id, GoalKind.GOTO, x=spec.x, y=spec.y)
    if spec.kind == "PATROL":
        return Task(task_id, GoalKind.PATROL, waypoints=spec.waypoints)
    return Task(task_id, GoalKind.HOLD)


def _device_step(rt: Runtime, dt: float, was_collided: bool) -> bool:
    """Device layer: physics under the held wheel command, the DEVICE state
    event with the step's own ground-truth clearance, and the collision
    event on the tick the latch first sets. Returns the collided latch."""
    state = rt.device.step(dt)
    rt.recorder.emit("DEVICE", "state", {
        "x": state.pose.x, "y": state.pose.y, "theta": state.pose.theta,
        "v_left": state.v_left, "v_right": state.v_right,
        "load": state.load, "clearance": rt.device.ground_truth_clearance(),
        "collided": state.collided,
    })
    if state.collided and not was_collided:
        rt.recorder.emit("DEVICE", "collision",
                         {"x": state.pose.x, "y": state.pose.y})
    return state.collided


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

    Per tick: inject due tasks, step the device, run the instinct, then the
    agent at its period (unless killed). The run ends at the tick budget or
    as soon as every issued task is terminal.
    """
    metrics_acc = MetricsAccumulator()
    all_sinks = [metrics_acc] + list(sinks or [])
    rt = build_runtime(scenario, store_trace=store_trace, sinks=all_sinks)
    issued = 0
    was_collided = False
    tick_times: list[int] = []
    for now in range(scenario.ticks):
        rt.recorder.begin_tick(now)
        # external layer: tasks scheduled for this tick
        for spec in scenario.tasks:
            if spec.issue_tick == now:
                issued += 1
                task = _task_from_spec(spec, issued)
                rt.recorder.emit("EXTERNAL", "task_issued", task.to_payload())
                rt.task_channel.transmit(task, now)
        was_collided = _device_step(rt, scenario.dt, was_collided)
        # instinct layer, instrumented for the tick budget
        t0 = time.perf_counter_ns()
        rt.instinct.tick(now)
        tick_times.append(time.perf_counter_ns() - t0)
        # decision layer at its own cadence, unless dead
        agent_alive = (scenario.agent.kill_tick is None
                       or now < scenario.agent.kill_tick)
        if agent_alive and now % scenario.agent.period_ticks == 0:
            rt.agent.tick(now)
        if (agent_alive and issued == len(scenario.tasks)
                and rt.agent.all_tasks_terminal()):
            break
    metrics = metrics_acc.metrics
    metrics.timing = _timing_stats(tick_times)
    return rt.recorder.events, metrics


def run_live(
    scenario: Scenario,
    store_trace: bool = True,
    sinks: list[Callable[[TraceEvent], None]] | None = None,
) -> tuple[list[TraceEvent], RunMetrics]:
    """Wall-clock run: instinct and agent in separate threads.

    The instinct thread owns the devices and the tick counter; the agent
    thread paces itself on the shared counter; the main thread plays the
    external layer. Excluded from determinism guarantees by design.
    """
    metrics_acc = MetricsAccumulator()
    all_sinks = [metrics_acc] + list(sinks or [])
    rt = build_runtime(scenario, store_trace=store_trace, sinks=all_sinks)
    stop = threading.Event()
    shared_tick = {"now": -1}
    tick_times: list[int] = []

    def instinct_loop() -> None:
        next_deadline = time.monotonic()
        was_collided = False
        for now in range(scenario.ticks):
            if stop.is_set():
                break
            rt.recorder.begin_tick(now)
            shared_tick["now"] = now
            was_collided = _device_step(rt, scenario.dt, was_collided)
            t0 = time.perf_counter_ns()
            rt.instinct.tick(now)
            tick_times.append(time.perf_counter_ns() - t0)
            next_deadline += scenario.dt
            delay = next_deadline - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        stop.set()

    def agent_loop() -> None:
        period_s = scenario.agent.period_ticks * scenario.dt
        while not stop.is_set():
            now = shared_tick["now"]
            if now >= 0:
                if (scenario.agent.kill_tick is not None
                        and now >= scenario.agent.kill_tick):
                    return
                rt.agent.tick(now)
                if rt.agent.all_tasks_terminal():
                    stop.set()
                    return
            time.sleep(period_s)

    instinct_thread = threading.Thread(target=instinct_loop, daemon=True)
    agent_thread = threading.Thread(target=agent_loop, daemon=True)
    instinct_thread.start()
    agent_thread.start()
    # external layer: issue tasks at (approximate) wall-clock issue times
    issued = 0
    for spec in sorted(scenario.tasks, key=lambda s: s.issue_tick):
        while shared_tick["now"] < spec.issue_tick and not stop.is_set():
            time.sleep(scenario.dt)
        if stop.is_set():
            break
        issued += 1
        rt.task_channel.transmit(_task_from_spec(spec, issued),
                                 max(shared_tick["now"], 0))
    instinct_thread.join()
    stop.set()
    agent_thread.join(timeout=5.0)
    metrics = metrics_acc.metrics
    metrics.timing = _timing_stats(tick_times)
    return rt.recorder.events, metrics
