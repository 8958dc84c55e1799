"""Channel behavior: latency, drops, ordering, replay."""

import random

import pytest

from instinctsim.bus import Channel


class TestChannel:
    def test_latency_arithmetic(self):
        ch = Channel("c", latency=5)
        ch.transmit("msg", now=10)
        assert ch.poll(14) == []
        assert ch.poll(15) == ["msg"]

    def test_certain_drop(self):
        dropped = []
        ch = Channel("c", latency=0, drop_probability=1.0, rng=random.Random(1),
                     on_drop=lambda name, msg: dropped.append((name, msg)))
        assert ch.transmit("msg", now=0) is False
        assert ch.poll(100) == []
        assert dropped == [("c", "msg")]

    def test_fifo_same_tick(self):
        ch = Channel("c", latency=2)
        ch.transmit("a", now=3)
        ch.transmit("b", now=3)
        assert ch.poll(5) == ["a", "b"]

    def test_poll_before_due_is_empty(self):
        ch = Channel("c", latency=3)
        ch.transmit("a", now=0)
        assert ch.poll(2) == []

    def test_consume_once(self):
        ch = Channel("c", latency=0)
        ch.transmit("a", now=0)
        assert ch.poll(0) == ["a"]
        assert ch.poll(0) == []

    def test_latency_floor(self):
        # nothing observable before send_tick + latency
        ch = Channel("c", latency=4)
        for t in range(10):
            ch.transmit(t, now=t)
        for t in range(10):
            for msg in Channel.poll(ch, t):
                assert msg + 4 <= t

    def test_replay_determinism(self):
        def pattern(seed):
            ch = Channel("c", latency=1, drop_probability=0.5,
                         rng=random.Random(seed))
            return [ch.transmit(i, now=i) for i in range(200)]

        assert pattern(42) == pattern(42)
        assert pattern(42) != pattern(43)

    def test_conservation(self):
        rng = random.Random(9)
        ch = Channel("c", latency=2, drop_probability=0.3, rng=random.Random(0))
        sent = dropped = delivered = 0
        for t in range(500):
            if rng.random() < 0.7:
                sent += 1
                dropped += not ch.transmit(t, now=t)
            delivered += len(ch.poll(t))
        delivered += len(ch.poll(10_000))
        assert dropped > 0
        assert sent == delivered + dropped
        assert ch.pending() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Channel("c", latency=-1)
        with pytest.raises(ValueError):
            Channel("c", drop_probability=1.5)
        with pytest.raises(ValueError):
            Channel("c", drop_probability=0.5)  # lossy without rng
