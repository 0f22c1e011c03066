"""Shared-memory collective algorithms (the MPI/NCCL/Gloo substitute).

A :class:`CollectiveGroup` is joined by exactly ``world_size`` threads that
call the same operation in lockstep (the engine guarantees this, as MPI
does).  Data moves through per-rank exchange slots separated by reusable
barriers — the *algorithms* are the real ones:

* ``allreduce``  — ring reduce-scatter + ring all-gather, 2(n-1) steps of
  1/n-sized chunks (bandwidth-optimal; Horovod/NCCL's algorithm);
* ``allgather`` — ring, n-1 steps;
* ``broadcast``/``reduce`` — binomial tree (log2 n rounds);
* ``gather``/``scatter``/``barrier``.

Each op charges simulated time for its critical path under the group's
:class:`NetworkModel` and bytes into each caller's stats.
"""

from __future__ import annotations

import math
import threading
from typing import Any, List, Optional

import numpy as np

from repro.comm.network import NetworkModel
from repro.utils.timer import SimClock

__all__ = ["CollectiveGroup"]


class CollectiveGroup:
    """Rendezvous group for in-process collective communication."""

    def __init__(
        self,
        world_size: int,
        network: Optional[NetworkModel] = None,
        sim_clock: Optional[SimClock] = None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.network = network if network is not None else NetworkModel.from_preset("ideal")
        self.sim_clock = sim_clock if sim_clock is not None else SimClock()
        self._barrier = threading.Barrier(world_size)
        self._slots: List[Any] = [None] * world_size
        self._bytes: List[int] = [0] * world_size  # per-rank bytes sent, for stats
        self._lock = threading.Lock()

    # -- synchronization ------------------------------------------------------
    def barrier(self, timeout: float = 60.0) -> None:
        """Block until all ranks arrive (raises BrokenBarrierError on timeout)."""
        self._barrier.wait(timeout)

    def _sim(self, rank: int, seconds: float, label: str) -> None:
        # one rank charges the op's critical path; collectives run in parallel
        if rank == 0 and seconds > 0:
            self.sim_clock.advance(seconds, label)

    def bytes_sent_by(self, rank: int) -> int:
        with self._lock:
            return self._bytes[rank]

    def _add_bytes(self, rank: int, nbytes: int) -> None:
        with self._lock:
            self._bytes[rank] += int(nbytes)

    # -- ring all-reduce --------------------------------------------------------
    def allreduce(self, rank: int, vector: np.ndarray, op: str = "mean") -> np.ndarray:
        """Ring all-reduce of a flat float vector; every rank gets the result."""
        if op not in ("sum", "mean"):
            raise ValueError(f"unsupported reduction {op!r}")
        n = self.world_size
        buf = np.array(vector, dtype=np.float32, copy=True).ravel()
        if n == 1:
            return buf.reshape(np.shape(vector))  # the sum and the mean of one
        bounds = np.linspace(0, buf.size, n + 1).astype(int)
        chunks = [slice(bounds[i], bounds[i + 1]) for i in range(n)]
        chunk_bytes = int(math.ceil(buf.size / n)) * buf.itemsize

        # phase 1: reduce-scatter (n-1 steps)
        for step in range(n - 1):
            send_idx = (rank - step) % n
            self._slots[rank] = buf[chunks[send_idx]].copy()
            self._add_bytes(rank, buf[chunks[send_idx]].nbytes)
            self.barrier()
            left = (rank - 1) % n
            recv_idx = (rank - step - 1) % n
            buf[chunks[recv_idx]] += self._slots[left]
            self.barrier()
        # phase 2: all-gather (n-1 steps)
        for step in range(n - 1):
            send_idx = (rank + 1 - step) % n
            self._slots[rank] = buf[chunks[send_idx]].copy()
            self._add_bytes(rank, buf[chunks[send_idx]].nbytes)
            self.barrier()
            left = (rank - 1) % n
            recv_idx = (rank - step) % n
            buf[chunks[recv_idx]] = self._slots[left]
            self.barrier()
        self._sim(rank, 2 * (n - 1) * self.network.transfer_time(chunk_bytes), "allreduce")
        self.barrier()
        if op == "mean":
            buf /= n
        return buf.reshape(np.shape(vector))

    # -- ring all-gather -----------------------------------------------------------
    def allgather(self, rank: int, array: np.ndarray) -> List[np.ndarray]:
        """Every rank contributes one array; all ranks get the full list."""
        n = self.world_size
        self._slots[rank] = np.array(array, copy=True)
        self.barrier()
        out = [np.array(self._slots[r], copy=True) for r in range(n)]
        self.barrier()
        if n > 1:
            nbytes = int(np.asarray(array).nbytes)
            self._add_bytes(rank, (n - 1) * nbytes)
            self._sim(rank, (n - 1) * self.network.transfer_time(nbytes), "allgather")
        return out

    # -- tree broadcast / reduce ------------------------------------------------------
    def broadcast(self, rank: int, obj: Any, src: int = 0, nbytes: Optional[int] = None) -> Any:
        """Binomial-tree broadcast of an arbitrary object from ``src``."""
        n = self.world_size
        if rank == src:
            self._slots[src] = obj
        self.barrier()
        result = self._slots[src]
        self.barrier()
        if n > 1 and rank in (src, 0):  # the only ranks that use the size
            size = int(nbytes) if nbytes is not None else _sizeof(obj if rank == src else result)
            if rank == src:
                self._add_bytes(rank, size * int(math.ceil(math.log2(n))))
            self._sim(rank, math.ceil(math.log2(n)) * self.network.transfer_time(size), "broadcast")
        return result

    def gather(self, rank: int, obj: Any, dst: int = 0) -> Optional[List[Any]]:
        """Collect one object per rank at ``dst`` (None elsewhere)."""
        n = self.world_size
        self._slots[rank] = obj
        self.barrier()
        result = [self._slots[r] for r in range(n)] if rank == dst else None
        self.barrier()
        if n > 1 and rank != dst:
            size = _sizeof(obj)
            self._add_bytes(rank, size)
            self._sim(rank, (n - 1) * self.network.transfer_time(size), "gather")
        return result

    def scatter(self, rank: int, objs: Optional[List[Any]], src: int = 0) -> Any:
        """``src`` provides one object per rank; each rank gets its own."""
        if rank == src:
            if objs is None or len(objs) != self.world_size:
                raise ValueError("scatter source must provide world_size objects")
            self._slots[src] = objs
        self.barrier()
        mine = self._slots[src][rank]
        self.barrier()
        if self.world_size > 1 and rank == src:
            self._add_bytes(rank, sum(_sizeof(o) for o in objs))  # type: ignore[union-attr]
        return mine

    def reduce(self, rank: int, vector: np.ndarray, dst: int = 0, op: str = "sum") -> Optional[np.ndarray]:
        """Tree-reduce a vector to ``dst`` (None elsewhere)."""
        gathered = self.gather(rank, np.asarray(vector, dtype=np.float64), dst)
        if rank != dst:
            return None
        acc = np.sum(gathered, axis=0)
        if op == "mean":
            acc = acc / self.world_size
        return acc.astype(np.asarray(vector).dtype)


def _sizeof(obj: Any) -> int:
    """Approximate transfer size of a payload object."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, dict):
        return sum(_sizeof(v) for v in obj.values()) + 16 * len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_sizeof(v) for v in obj) + 8 * len(obj)
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, (int, float, bool)):
        return 8
    return 64
