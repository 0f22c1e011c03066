"""A simulated clock.

Besides wall time, benchmarks need **simulated time** — what *would* elapse
on the paper's deployment given a network model (latency + bandwidth per
link class).  Communicators account simulated transfer seconds into a
``SimClock`` without sleeping, so experiments like Fig. 7 (inner MPI vs
outer gRPC cost) report meaningful relative costs at laptop scale.
"""

from __future__ import annotations

import math
import threading
from typing import Dict


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
