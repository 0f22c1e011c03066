"""Peer-to-peer topology: full mesh, every node mixes with every other (Fig. 1c)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.topology.base import GroupSpec, NodeRole, NodeSpec, TOPOLOGIES, Topology

__all__ = ["PeerToPeerTopology"]


@TOPOLOGIES.register("p2p", "peer_to_peer", "mesh")
class PeerToPeerTopology(Topology):
    """Uniform all-to-all gossip: equivalent in expectation to FedAvg but
    with no coordinator (mixing weight 1/N to everyone including self)."""

    pattern = "gossip"

    def __init__(self, num_clients: int = 4, inner_comm: Optional[Dict[str, Any]] = None) -> None:
        if num_clients < 2:
            raise ValueError("p2p needs at least 2 nodes")
        self.num_clients = num_clients
        self.inner_comm = dict(inner_comm or {"backend": "torchdist"})
        self._specs: Optional[List[NodeSpec]] = None

    def specs(self) -> List[NodeSpec]:
        if self._specs is None:
            n = self.num_clients
            weight = 1.0 / n
            self._specs = [
                NodeSpec(
                    name=f"peer_{i}",
                    index=i,
                    role=NodeRole.TRAINER,
                    groups={"inner": GroupSpec("inner", i, n, self.inner_comm)},
                    shard=i,
                    mixing={j: weight for j in range(n)},
                )
                for i in range(n)
            ]
        return self._specs

    def edges(self) -> List[Tuple[int, int]]:
        n = self.num_clients
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
