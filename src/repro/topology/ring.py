"""Ring (decentralized) topology: each node talks to its two neighbors (Fig. 1b)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.topology.base import GroupSpec, NodeRole, NodeSpec, TOPOLOGIES, Topology

__all__ = ["RingTopology"]


@TOPOLOGIES.register("ring", "decentralized")
class RingTopology(Topology):
    """N trainer nodes on a cycle; aggregation is neighbor gossip averaging.

    Mixing weights follow the standard symmetric gossip matrix: 1/3 self,
    1/3 each neighbor (configurable via ``self_weight``).
    """

    pattern = "gossip"

    def __init__(
        self,
        num_clients: int = 4,
        inner_comm: Optional[Dict[str, Any]] = None,
        self_weight: float = 1.0 / 3.0,
    ) -> None:
        if num_clients < 3:
            raise ValueError("a ring needs at least 3 nodes")
        if not (0.0 < self_weight < 1.0):
            raise ValueError("self_weight must be in (0, 1)")
        self.num_clients = num_clients
        self.inner_comm = dict(inner_comm or {"backend": "torchdist"})
        self.self_weight = self_weight
        self._specs: Optional[List[NodeSpec]] = None

    def specs(self) -> List[NodeSpec]:
        if self._specs is None:
            n = self.num_clients
            neighbor_weight = (1.0 - self.self_weight) / 2.0
            out = []
            for i in range(n):
                mixing = {
                    i: self.self_weight,
                    (i - 1) % n: neighbor_weight,
                    (i + 1) % n: neighbor_weight,
                }
                out.append(
                    NodeSpec(
                        name=f"node_{i}",
                        index=i,
                        role=NodeRole.TRAINER,
                        groups={"inner": GroupSpec("inner", i, n, self.inner_comm)},
                        shard=i,
                        mixing=mixing,
                    )
                )
            self._specs = out
        return self._specs

    def edges(self) -> List[Tuple[int, int]]:
        n = self.num_clients
        return [(i, (i + 1) % n) for i in range(n)]
