"""Tunable parameters with desk-scale indoor-robot defaults.

Each ``*Params`` class is one section of the scenario file, so every value
here can be overridden per run; the defaults keep the whole stack consistent
(d_stop > d_min so the reactive governor has authority before the
predictive band is reached).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RobotParams:
    radius: float = 0.15          # body radius, m
    axle: float = 0.3             # wheel separation, m
    v_wheel_max: float = 0.5      # per-wheel speed limit, m/s
    a_max: float = 1.0            # per-wheel acceleration limit, m/s^2


@dataclass(frozen=True)
class LidarParams:
    beams: int = 36
    max_range: float = 5.0        # m; a miss reports exactly this value
    noise_std: float = 0.0        # optional seeded Gaussian range noise, m


@dataclass(frozen=True)
class InstinctParams:
    d_min: float = 0.2            # predictive clearance floor, m (body to surface)
    d_stop: float = 0.25          # reactive stop range, m (front sector)
    d_slow: float = 0.5           # reactive slow-down range, m
    eps_pos: float = 0.05         # position deadband for command completion, m
    eps_heading: float = 0.05     # heading deadband, rad
    k_d: float = 1.0              # distance gain
    k_theta: float = 2.0          # heading gain
    omega_max: float = 2.0        # yaw-rate clamp, rad/s
    dt_pred: float = 0.02         # predictive-check integration step, s
    stale_limit: int = 5          # max belief age, ticks
    safe_hold_ticks: int = 200    # consecutive safe ticks before leaving safe mode
    overload_threshold: float = 0.8
    overload_window: int = 100    # ticks of sustained overload before unsafe
    roaming: bool = False         # idle random-arc roaming


BACKENDS = ("rule", "hallucinate", "llm")  # planner backends of the agent


@dataclass(frozen=True)
class AgentParams:
    backend: str = "rule"         # one of BACKENDS
    period_ticks: int = 50        # agent cadence relative to the physics tick
    hallucination_probability: float = 0.0
    kill_tick: int | None = None  # the agent dies at this tick, if set
    llm_model: str = "default"


@dataclass(frozen=True)
class ChannelParams:
    command_latency: int = 2      # agent -> instinct, ticks
    feedback_latency: int = 2     # instinct -> agent
    data_latency: int = 2         # instinct -> agent (summaries)
    task_latency: int = 0         # external -> agent
    command_drop: float = 0.0
    feedback_drop: float = 0.0
    data_drop: float = 0.0


PHYSICS_DT = 0.01  # s per logical tick


def derive_rng(seed: int, stream: str) -> random.Random:
    """Independent, replayable generator for a named stream of a run seed."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
