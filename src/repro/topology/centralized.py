"""Centralized (star) topology: one aggregator, N trainer clients (Fig. 1a)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.topology.base import GroupSpec, NodeRole, NodeSpec, TOPOLOGIES, Topology

__all__ = ["CentralizedTopology"]


@TOPOLOGIES.register("centralized", "star")
class CentralizedTopology(Topology):
    """Server at group rank 0; clients at ranks 1..N.

    Mirrors the paper's Fig. 2 config:

    .. code-block:: yaml

        topology:
          _target_: repro.omnifed.topology.CentralizedTopology
          num_clients: 8
          inner_comm:
            _target_: repro.omnifed.communicator.GrpcCommunicator
            master_port: 50051
    """

    pattern = "server"

    def __init__(self, num_clients: int = 4, inner_comm: Optional[Dict[str, Any]] = None) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        self.num_clients = num_clients
        self.inner_comm = dict(inner_comm or {"backend": "torchdist"})
        self._specs: Optional[List[NodeSpec]] = None

    def specs(self) -> List[NodeSpec]:
        if self._specs is None:
            world = self.num_clients + 1
            out = [
                NodeSpec(
                    name="server",
                    index=0,
                    role=NodeRole.AGGREGATOR,
                    groups={"inner": GroupSpec("inner", 0, world, self.inner_comm)},
                )
            ]
            for i in range(self.num_clients):
                out.append(
                    NodeSpec(
                        name=f"client_{i}",
                        index=i + 1,
                        role=NodeRole.TRAINER,
                        groups={"inner": GroupSpec("inner", i + 1, world, self.inner_comm)},
                        shard=i,
                    )
                )
            self._specs = out
        return self._specs

    def edges(self) -> List[Tuple[int, int]]:
        return [(0, i) for i in range(1, self.num_clients + 1)]  # node 0 is the hub
