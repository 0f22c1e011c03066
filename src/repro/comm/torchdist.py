"""``TorchDistCommunicator`` — the paper's MPI-collectives backend.

Mirrors ``torch.distributed`` usage: every participant constructs a
communicator with the same ``master_addr:master_port`` (the rendezvous key)
and the same ``world_size``; the first arrival creates the shared
:class:`CollectiveGroup` and the rest join it.  All group primitives map to
genuine collective algorithms (ring all-reduce etc.), making this the fast
"inner" protocol of hierarchical deployments.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.comm.base import Communicator
from repro.comm.collectives import CollectiveGroup, _sizeof
from repro.comm.network import NetworkModel
from repro.utils.timer import SimClock

__all__ = ["TorchDistCommunicator", "reset_rendezvous"]

_RENDEZVOUS: Dict[Tuple[str, int, str], CollectiveGroup] = {}
_RENDEZVOUS_LOCK = threading.Lock()


def reset_rendezvous() -> None:
    """Drop all rendezvous groups (between tests/experiments)."""
    with _RENDEZVOUS_LOCK:
        _RENDEZVOUS.clear()


class TorchDistCommunicator(Communicator):
    """Collective communicator over an in-process rendezvous group."""

    def __init__(
        self,
        rank: int,
        world_size: int,
        master_addr: str = "127.0.0.1",
        master_port: int = 29500,
        group_name: str = "default",
        backend: str = "gloo",
        network: Optional[NetworkModel] = None,
        network_preset: Optional[str] = None,
        sim_clock: Optional[SimClock] = None,
    ) -> None:
        if network is None and network_preset is not None:
            network = NetworkModel.from_preset(network_preset)
        super().__init__(rank, world_size, network, sim_clock)
        self.backend = backend
        key = (master_addr, int(master_port), group_name)
        with _RENDEZVOUS_LOCK:
            group = _RENDEZVOUS.get(key)
            if group is None:
                group = CollectiveGroup(world_size, self.network, self.sim_clock)
                _RENDEZVOUS[key] = group
            elif group.world_size != world_size:
                raise ValueError(
                    f"rendezvous {key} already exists with world_size={group.world_size}, "
                    f"got {world_size}"
                )
        self.group = group
        self._rendezvous_key = key
        # point-to-point mailboxes shared through the group object
        if not hasattr(group, "_p2p"):
            with _RENDEZVOUS_LOCK:
                if not hasattr(group, "_p2p"):
                    group._p2p = _P2PMailboxes(world_size)  # type: ignore[attr-defined]

    # -- group primitives ------------------------------------------------------
    def _sim_cost(self, kind: str, nbytes: int) -> float:
        """This communicator's share of an op's simulated critical path.

        The group charges the global clock once per op; per-communicator
        stats mirror the same formulas so `comm_summary` can attribute
        simulated seconds to link classes.
        """
        n = self.world_size
        if n <= 1 or nbytes <= 0:
            return 0.0
        if kind == "allreduce":
            chunk = int(math.ceil(nbytes / n))
            return 2 * (n - 1) * self.network.transfer_time(chunk)
        if kind == "broadcast":
            return math.ceil(math.log2(n)) * self.network.transfer_time(nbytes)
        if kind in ("gather", "allgather"):
            return (n - 1) * self.network.transfer_time(nbytes)
        return self.network.transfer_time(nbytes)

    def broadcast_state(self, state: Optional[Mapping[str, np.ndarray]], src: int = 0) -> Dict[str, np.ndarray]:
        if self.rank == src and state is None:
            raise ValueError("broadcast source must provide a state")
        payload = None
        if self.rank == src:
            payload = OrderedDict((k, np.array(v, copy=True)) for k, v in state.items())  # type: ignore[union-attr]
        before = self.group.bytes_sent_by(self.rank)
        result = self.group.broadcast(self.rank, payload, src)
        nbytes = self._state_nbytes(result)
        self.stats.record(
            sent=self.group.bytes_sent_by(self.rank) - before,
            sim=self._sim_cost("broadcast", nbytes) if self.rank == src else 0.0,
        )
        return OrderedDict((k, np.array(v, copy=True)) for k, v in result.items())

    def gather_states(
        self, state: Mapping[str, np.ndarray], meta: Optional[Dict[str, Any]] = None, dst: int = 0
    ) -> Optional[List[Dict[str, Any]]]:
        entry = {
            "rank": self.rank,
            "state": OrderedDict((k, np.array(v, copy=True)) for k, v in state.items()),
            "meta": dict(meta or {}),
        }
        before = self.group.bytes_sent_by(self.rank)
        gathered = self.group.gather(self.rank, entry, dst)
        self.stats.record(
            sent=self.group.bytes_sent_by(self.rank) - before,
            sim=self._sim_cost("gather", self._state_nbytes(state)) if self.rank != dst else 0.0,
        )
        if gathered is None:
            return None
        return sorted(gathered, key=lambda e: e["rank"])

    def allreduce(self, vector: np.ndarray, op: str = "mean") -> np.ndarray:
        before = self.group.bytes_sent_by(self.rank)
        out = self.group.allreduce(self.rank, vector, op)
        self.stats.record(
            sent=self.group.bytes_sent_by(self.rank) - before,
            sim=self._sim_cost("allreduce", int(np.asarray(vector).nbytes)) if self.rank == 0 else 0.0,
        )
        return out

    def allgather(self, array: np.ndarray) -> List[np.ndarray]:
        before = self.group.bytes_sent_by(self.rank)
        out = self.group.allgather(self.rank, array)
        self.stats.record(sent=self.group.bytes_sent_by(self.rank) - before)
        return out

    def scatter(self, objs: Optional[List[Any]], src: int = 0) -> Any:
        return self.group.scatter(self.rank, objs, src)

    def barrier(self) -> None:
        self.group.barrier()

    # -- point-to-point -----------------------------------------------------------
    def send(self, payload: Dict[str, Any], dst: int, tag: int = 0) -> None:
        mailboxes: _P2PMailboxes = self.group._p2p  # type: ignore[attr-defined]
        nbytes = _sizeof(payload)
        self._account(nbytes, "send", "p2p")
        mailboxes.put(dst, tag, payload)

    def recv(self, src: int, tag: int = 0, timeout: Optional[float] = None) -> Dict[str, Any]:
        mailboxes: _P2PMailboxes = self.group._p2p  # type: ignore[attr-defined]
        payload = mailboxes.get(self.rank, tag, timeout if timeout is not None else 60.0)
        self.stats.record(received=_sizeof(payload))
        return payload


class _P2PMailboxes:
    """Tagged blocking mailboxes for point-to-point sends within a group."""

    def __init__(self, world_size: int) -> None:
        self._boxes: Dict[Tuple[int, int], List[Any]] = {}
        self._cond = threading.Condition()
        self.world_size = world_size

    def put(self, dst: int, tag: int, payload: Any) -> None:
        with self._cond:
            self._boxes.setdefault((dst, tag), []).append(payload)
            self._cond.notify_all()

    def get(self, rank: int, tag: int, timeout: float) -> Any:
        key = (rank, tag)
        with self._cond:
            # wait_for keeps one monotonic deadline across wake-ups: a put to
            # any other (rank, tag) wakes this waiter without refilling it
            if not self._cond.wait_for(lambda: self._boxes.get(key), timeout=timeout):
                raise TimeoutError(f"recv timeout on rank {rank} tag {tag}")
            return self._boxes[key].pop(0)
