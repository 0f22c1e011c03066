"""Custom graph topology: explicit nodes and edges from config.

The paper's work-in-progress feature ("custom and complex topologies via
Topology's graph-based representations from the job's YAML configuration ...
the edges of the graph will determine which nodes can communicate").  Here it
is implemented: a node list plus edge list (optionally weighted) becomes a
gossip topology whose mixing matrix is the symmetric random-walk matrix with
a configurable self-loop — guaranteed doubly-substochastic rows that sum
to 1, so gossip averaging preserves the mean.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.topology.base import GroupSpec, NodeRole, NodeSpec, TOPOLOGIES, Topology

__all__ = ["CustomGraphTopology"]


@TOPOLOGIES.register("custom", "graph")
class CustomGraphTopology(Topology):
    """Gossip over an arbitrary connected undirected graph.

    ``edges`` is a list of ``[u, v]`` (or ``[u, v, weight]``) pairs over node
    ids ``0..num_clients-1``.  Metropolis-Hastings weights are used so the
    mixing matrix is symmetric and doubly stochastic regardless of degree
    skew:  w_uv = 1 / (1 + max(deg(u), deg(v))),  w_uu = 1 - Σ_v w_uv.
    """

    pattern = "gossip"

    def __init__(
        self,
        num_clients: int,
        edges: Sequence[Sequence[int]],
        inner_comm: Optional[Dict[str, Any]] = None,
    ) -> None:
        if num_clients < 2:
            raise ValueError("need at least 2 nodes")
        self.num_clients = num_clients
        # node -> neighbors in listing order (an insertion-ordered set)
        self._adjacency: Dict[int, Dict[int, None]] = {i: {} for i in range(num_clients)}
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < num_clients and 0 <= v < num_clients):
                raise ValueError(f"edge {e} references unknown node")
            if u == v:
                raise ValueError("self-loops are implicit; do not list them")
            self._adjacency[u][v] = self._adjacency[v][u] = None
        reached, frontier = {0}, [0]
        while frontier:
            fresh = set(self._adjacency[frontier.pop()]) - reached
            reached |= fresh
            frontier.extend(fresh)
        if len(reached) < num_clients:
            raise ValueError("custom topology graph must be connected")
        self.inner_comm = dict(inner_comm or {"backend": "torchdist"})
        self._specs: Optional[List[NodeSpec]] = None

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u, peers in self._adjacency.items() for v in peers if u < v]

    def specs(self) -> List[NodeSpec]:
        if self._specs is None:
            adjacency = self._adjacency
            n = self.num_clients
            out = []
            for i in range(n):
                # Metropolis-Hastings mixing weights
                mixing: Dict[int, float] = {}
                for j in adjacency[i]:
                    mixing[j] = 1.0 / (1.0 + max(len(adjacency[i]), len(adjacency[j])))
                mixing[i] = 1.0 - sum(mixing.values())
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
