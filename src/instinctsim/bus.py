"""Typed message channels between layers.

Channels are the only cross-layer communication path. Delivery and drop
decisions are fixed at send time from a seeded per-channel stream, so a run
is replayable from its seed alone. A lock makes each channel safe for
one-producer/one-consumer use in live mode; in deterministic mode everything
runs on one thread and the lock is uncontended.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Any


class Channel:
    """FIFO channel with a fixed tick latency and optional send-time drops."""

    def __init__(
        self,
        name: str,
        latency: int = 0,
        drop_probability: float = 0.0,
        rng: random.Random | None = None,
        on_drop: Any = None,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if drop_probability > 0.0 and rng is None:
            raise ValueError("lossy channel requires a seeded rng")
        self.name = name
        self.latency = latency
        self.drop_probability = drop_probability
        self.rng = rng
        self.on_drop = on_drop  # callable(channel_name, msg), e.g. a tracer
        self._queue: deque[tuple[int, Any]] = deque()
        self._lock = threading.Lock()

    def transmit(self, msg: Any, now: int) -> bool:
        """Send a message; returns False when it was dropped at send time."""
        with self._lock:
            dropped = (self.drop_probability > 0.0
                       and self.rng.random() < self.drop_probability)
            if not dropped:
                self._queue.append((now + self.latency, msg))
        if dropped and self.on_drop is not None:
            self.on_drop(self.name, msg)
        return not dropped

    def poll(self, now: int) -> list[Any]:
        """Remove and return every message due at or before ``now``."""
        out: list[Any] = []
        with self._lock:
            while self._queue and self._queue[0][0] <= now:
                out.append(self._queue.popleft()[1])
        return out

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)
