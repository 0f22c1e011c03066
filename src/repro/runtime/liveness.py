"""Liveness: the worker's one heartbeat thread and the engine's one death rule.

Worker side, a :class:`Heartbeater` — started by the
:class:`~repro.runtime.worker.Worker` loop, whatever its link — calls the
link's ``beat()`` every period on its own daemon thread (the first beat
synchronously, so the engine counts the worker before it pulls anything).
A beat renews the worker's liveness mark and the leases of the item in
hand; its reply meta may carry the engine's ``stop`` flag.  Outcomes surface
as events the turn loop polls, not as exceptions, because the loop runs on
another thread.

Engine side, one rule: a key — a worker's heartbeat, a turn's lease, on
``redis://`` and ``tcp://`` alike — is dead once its liveness mark has gone
unchanged for longer than its window on the engine's *monotonic* clock
(:func:`silent`).  Marks are compared, never read as times: a worker's
wall-clock stamp means nothing against the engine's clock across hosts or
an NTP step, but "this value stopped changing a lease ago" does.
:class:`Marks` turns values read back from the store into the instant each
last changed.  Callers pass ``now``, so one clock reading judges a whole sweep.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Iterable, Optional

from repro.utils.logging import get_logger

__all__ = ["Heartbeater", "Marks", "silent"]

_LOG = get_logger("liveness")


def silent(since: float, now: float, window: float) -> bool:
    """Dead: the liveness mark last changed at ``since`` and has stayed
    unchanged for longer than ``window`` (engine monotonic seconds)."""
    return now - since > window


class Marks(dict):
    """``key -> (mark, since)``: each key's last-seen liveness mark and the
    engine instant it was first seen with that value."""

    def see(self, key: Hashable, mark: Any, now: float) -> float:
        """Record ``key``'s mark as read at ``now``; returns the instant it
        last changed (``now`` for a new key or a changed mark)."""
        seen = self.get(key)
        if seen is None or seen[0] != mark:
            self[key] = seen = (mark, now)
        return seen[1]

    def retain(self, keys: Iterable[Hashable]) -> None:
        """Forget every key not in ``keys`` (gone from the store)."""
        keep = set(keys)
        for key in [k for k in self if k not in keep]:
            del self[key]


class Heartbeater:
    """Periodic heartbeat sender with failure accounting.

    Parameters
    ----------
    beat:
        Sends one heartbeat and returns the reply meta dict.  Raising
        counts as one transport failure; ``max_failures`` consecutive
        failures set ``lost``.
    period:
        Seconds between beats (the engine's advertised interval).
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
        self.stopped = threading.Event()   # the engine asked us to stop
        self.lost = threading.Event()      # engine unreachable
        self._shutdown = threading.Event()
        self._failures = 0
        self.beats_sent = 0
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "Heartbeater":
        """Beat once on the calling thread (a failure raises), then keep
        beating on a daemon thread unless that reply already ended it."""
        if self._heard(self._beat()):
            self._thread = threading.Thread(
                target=self._loop, name="worker-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._shutdown.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    def _heard(self, reply: Dict[str, Any]) -> bool:
        """Account one answered beat; False once it ended the heartbeat."""
        self._failures = 0
        self.beats_sent += 1
        if reply.get("stop"):
            self.stopped.set()
            return False
        return True

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
            if not self._heard(reply):
                return
