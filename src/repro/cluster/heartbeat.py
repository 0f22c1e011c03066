"""The node-side heartbeat loop.

A :class:`Heartbeater` runs on its own daemon thread and periodically calls
a supplied ``beat()`` callable (which sends one heartbeat frame and returns
the coordinator's reply meta).  It watches the reply for the coordinator's
``stop`` flag and for membership rejection (``ok: false`` — the node was
evicted while partitioned and must stop serving), and tolerates a bounded
number of consecutive transport failures before declaring the coordinator
lost.  Outcomes surface as events on the owner's ``threading.Event``s
rather than exceptions, because the consumer is a turn loop on another
thread.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro.utils.logging import get_logger

__all__ = ["Heartbeater"]

_LOG = get_logger("cluster.heartbeat")


class Heartbeater:
    """Periodic heartbeat sender with failure accounting.

    Parameters
    ----------
    beat:
        Sends one heartbeat and returns the reply meta dict.  Raising
        counts as one transport failure; ``max_failures`` consecutive
        failures set ``lost``.
    period:
        Seconds between beats (the coordinator's advertised interval).
    """

    def __init__(
        self,
        beat: Callable[[], Dict[str, Any]],
        period: float,
        *,
        max_failures: int = 3,
    ) -> None:
        if period <= 0:
            raise ValueError("heartbeat period must be > 0")
        self._beat = beat
        self.period = float(period)
        self.max_failures = int(max_failures)
        self.stopped = threading.Event()   # coordinator asked us to stop
        self.lost = threading.Event()      # coordinator unreachable/evicted us
        self._shutdown = threading.Event()
        self._failures = 0
        self.beats_sent = 0
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "Heartbeater":
        self._thread = threading.Thread(
            target=self._loop, name="cluster-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._shutdown.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._shutdown.wait(self.period):
            try:
                reply = self._beat()
            except Exception as exc:  # noqa: BLE001 - transport failures counted
                self._failures += 1
                _LOG.warning(
                    "heartbeat failed (%d/%d): %s",
                    self._failures, self.max_failures, exc,
                )
                if self._failures >= self.max_failures:
                    self.lost.set()
                    return
                continue
            self._failures = 0
            self.beats_sent += 1
            if not reply.get("ok", True):
                # the coordinator no longer knows us (evicted during a
                # partition): stop serving rather than train into the void
                _LOG.warning("heartbeat rejected: membership revoked")
                self.lost.set()
                return
            if reply.get("stop"):
                self.stopped.set()
                return
