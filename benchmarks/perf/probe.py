"""The machine side of a measurement: CPU pinning, the fixed speed probe,
and ``/proc`` readers for the CPU time and memory of child processes."""

from __future__ import annotations

import os
import time
from typing import Iterable, List, Optional

#: the two variables BLAS reads at import: one thread, or a matmul spawns
#: helpers that fight the pinned interpreter for its one core
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def pin_to_one_cpu() -> List[int]:
    """Pin this process (and so every child) to the highest-numbered CPU of
    its affinity mask; returns the mask it had before.

    One CPU, because thread placement makes the pool bimodal: the same laps
    run 1.8x slower when the scheduler thread and a worker thread land on
    two cores and bounce the interpreter lock between them."""
    before = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {before[-1]})
    return before


def unpin(cpus: Iterable[int]) -> None:
    os.sched_setaffinity(0, set(cpus))


class Probe:
    """A fixed piece of interpreter + BLAS work (~25 ms): how fast is the
    machine right now?  Builtins and numpy only, nothing of the program."""

    LOOP = 80_000
    MATMULS = 80

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 256)).astype(np.float32)
        self._b = rng.standard_normal((256, 256)).astype(np.float32)
        self._out = np.empty((256, 256), dtype=np.float32)
        self._matmul = np.matmul

    def __call__(self) -> float:
        a, b, out, matmul = self._a, self._b, self._out, self._matmul
        start = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i & 7
        for _ in range(self.MATMULS):
            matmul(a, b, out=out)
        return time.perf_counter() - start


# -- /proc readers ------------------------------------------------------
_TICK = 1.0 / os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used, all threads.

    Sums the scheduler's nanosecond on-CPU counters per thread; where the
    kernel does not keep them, falls back to the 10 ms ticks of ``stat``."""
    total_ns, found = 0, False
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                    total_ns += int(fh.read().split()[0])
                    found = True
            except (OSError, ValueError, IndexError):
                continue
    except OSError:
        return 0.0
    if found:
        return total_ns / 1e9
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * _TICK
    except (OSError, ValueError, IndexError):
        return 0.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a live process in MB (0 when it is already gone)."""
    try:
        with open(f"/proc/{pid or os.getpid()}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
