"""Wall-clock timers and a simulated clock.

Benchmarks need two notions of time:

* **Wall time** — what actually elapsed on this machine (``WallTimer``).
* **Simulated time** — what *would* elapse on the paper's deployment given a
  network model (latency + bandwidth per link class).  Communicators account
  simulated transfer seconds into a ``SimClock`` without sleeping, so
  experiments like Fig. 7 (inner MPI vs outer gRPC cost) report meaningful
  relative costs at laptop scale.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class WallTimer:
    """Accumulating wall-clock timer.

    >>> t = WallTimer()
    >>> with t.measure():
    ...     pass
    >>> t.total >= 0.0
    True
    """

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self._laps: List[float] = []

    @contextmanager
    def measure(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            lap = time.perf_counter() - start
            self.total += lap
            self.count += 1
            self._laps.append(lap)

    @property
    def laps(self) -> List[float]:
        return list(self._laps)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def median(self) -> float:
        if not self._laps:
            return 0.0
        laps = sorted(self._laps)
        n = len(laps)
        mid = n // 2
        return laps[mid] if n % 2 else 0.5 * (laps[mid - 1] + laps[mid])

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
        self._laps.clear()


# Backwards-friendly alias: most call sites just want "a timer".
Timer = WallTimer


#: every finite double is a whole number of 2**-1074 s, so simulated time kept
#: as an integer count of those is exact whatever is added, in whatever order
_TICKS_PER_SECOND = 1 << 1074


class SimClock:
    """Thread-safe accumulator of *simulated* seconds, bucketed by label.

    The clock never sleeps; it only accounts durations that a network model
    attributes to operations.  ``advance`` is safe to call from any actor
    thread, and because each bucket is summed exactly and rounded once on
    reading, what ``read``/``total``/``snapshot`` return depends on the
    multiset of charges, never on the order threads happened to make them in
    — two site heads charging the same bucket concurrently used to make a
    round's ``sim_comm_seconds`` differ in its last bits from run to run.
    """

    def __init__(self) -> None:
        self._ticks: Dict[str, int] = {}
        self._lock = threading.Lock()

    def advance(self, seconds: float, label: str = "default") -> None:
        if not 0 <= seconds < math.inf:  # negative, infinite or NaN
            raise ValueError(f"cannot advance simulated clock by {seconds!r}s")
        num, den = float(seconds).as_integer_ratio()
        with self._lock:
            self._ticks[label] = self._ticks.get(label, 0) + num * (_TICKS_PER_SECOND // den)

    def read(self, label: str = "default") -> float:
        with self._lock:
            return self._ticks.get(label, 0) / _TICKS_PER_SECOND

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self._ticks.values()) / _TICKS_PER_SECOND

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {label: ticks / _TICKS_PER_SECOND for label, ticks in self._ticks.items()}

    def reset(self) -> None:
        with self._lock:
            self._ticks.clear()
