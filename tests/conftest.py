"""Shared builders for controller-level tests."""

import random
from types import SimpleNamespace

import pytest

from instinctsim.bus import Channel
from instinctsim.config import InstinctParams, LidarParams, PHYSICS_DT, RobotParams
from instinctsim.instinct import InstinctController
from instinctsim.trace import TraceRecorder
from instinctsim.world import DeviceSim, Pose2D, Rect, RobotState, WorldModel

BIG_BOUNDS = Rect(-10.0, -10.0, 10.0, 10.0)


def make_stack(
    world: WorldModel | None = None,
    pose: Pose2D = Pose2D(0.0, 0.0, 0.0),
    params: InstinctParams | None = None,
    roam_seed: int = 0,
) -> SimpleNamespace:
    """Device + channels + instinct controller wired for direct tick tests.

    Channels use zero latency so effects are observable the same tick.
    """
    world = world or WorldModel(bounds=BIG_BOUNDS)
    device = DeviceSim(world, RobotState(pose=pose), RobotParams(), LidarParams())
    command = Channel("command", 0)
    feedback = Channel("feedback", 0)
    data = Channel("data", 0)
    recorder = TraceRecorder()
    controller = InstinctController(
        device=device,
        command_channel=command,
        feedback_channel=feedback,
        data_channel=data,
        recorder=recorder,
        params=params or InstinctParams(),
        physics_dt=PHYSICS_DT,
        roam_rng=random.Random(roam_seed),
    )
    return SimpleNamespace(
        world=world,
        device=device,
        command=command,
        feedback=feedback,
        data=data,
        recorder=recorder,
        controller=controller,
    )


@pytest.fixture
def stack():
    return make_stack()
