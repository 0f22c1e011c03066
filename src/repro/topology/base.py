"""Topology abstractions: node specs, roles, communicator groups."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "NodeRole",
    "GroupSpec",
    "NodeSpec",
    "SiteGroup",
    "Topology",
    "TOPOLOGIES",
    "build_topology",
    "stationary_distribution",
]

TOPOLOGIES: Registry["Topology"] = Registry("topology")


class NodeRole(str, enum.Enum):
    """What a participant does (paper §3.3: trainer, aggregator, or relay)."""

    TRAINER = "trainer"
    AGGREGATOR = "aggregator"
    #: aggregates below and reports above (hierarchical site heads)
    RELAY = "relay"

    def trains(self) -> bool:
        return self is NodeRole.TRAINER

    def aggregates(self) -> bool:
        return self in (NodeRole.AGGREGATOR, NodeRole.RELAY)


@dataclass
class GroupSpec:
    """Membership of one node in one communicator group.

    ``comm_config`` is the (already-merged) communicator configuration; the
    engine instantiates one communicator per (node, group) from it, passing
    this node's ``rank`` and the group's ``world_size``.
    """

    name: str  # "inner" or "outer"
    rank: int
    world_size: int
    comm_config: Dict[str, Any] = field(default_factory=dict)


@dataclass
class NodeSpec:
    """Blueprint for one participant."""

    name: str
    index: int  # global index within the topology
    role: NodeRole
    groups: Dict[str, GroupSpec] = field(default_factory=dict)
    #: does this node hold a training shard? (which one)
    shard: Optional[int] = None
    #: gossip mixing weights for decentralized topologies: peer index -> weight
    mixing: Dict[int, float] = field(default_factory=dict)

    @property
    def inner(self) -> Optional[GroupSpec]:
        return self.groups.get("inner")

    @property
    def outer(self) -> Optional[GroupSpec]:
        return self.groups.get("outer")


@dataclass
class SiteGroup:
    """One site of a hierarchical federation, in engine-node indices.

    ``head`` is the site's aggregating relay; ``trainers`` are the node
    indices of the trainers below it.  The scheduler subsystem consumes this
    to bind a nested per-site execution policy.
    """

    site: int
    head: int
    trainers: List[int]


class Topology:
    """Defines the node graph and coordination pattern.

    Subclasses implement :meth:`specs` (the participants) and
    :meth:`edges` (who communicates with whom, as pairs of spec indices).
    The engine consumes both; :meth:`neighbor_map` and the mixing matrices
    are derived from the edge list.
    """

    #: coordination pattern the engine should run: "server" (broadcast/
    #: gather rounds), "gossip" (neighbor mixing), or "hierarchical"
    pattern: str = "server"

    #: config keys :func:`repro.config.instantiate` must NOT recurse into —
    #: communicator configs are instantiated per node by the engine, after
    #: rank and world size are known
    DEFER_KEYS = ("inner_comm", "outer_comm")

    def specs(self) -> List[NodeSpec]:
        raise NotImplementedError

    def edges(self) -> List[Tuple[int, int]]:
        """Undirected communication links, each listed once."""
        raise NotImplementedError

    @property
    def world_size(self) -> int:
        return len(self.specs())

    def trainer_count(self) -> int:
        return sum(1 for s in self.specs() if s.role.trains())

    def site_groups(self) -> List[SiteGroup]:
        """Site structure for multi-tier topologies (empty for flat ones)."""
        return []

    # ------------------------------------------------------------------
    # graph structure (decentralized runtimes consume these uniformly)
    # ------------------------------------------------------------------
    def neighbor_map(self) -> Dict[int, List[int]]:
        """Adjacency as ``{node index: sorted neighbor indices}``."""
        adjacency: Dict[int, set] = {int(s.index): set() for s in self.specs()}
        for u, v in self.edges():
            adjacency[int(u)].add(int(v))
            adjacency[int(v)].add(int(u))
        return {i: sorted(peers) for i, peers in adjacency.items()}

    def mixing_matrix(self) -> np.ndarray:
        """Row-stochastic mixing matrix ``W`` (``W[i, j]`` = weight node
        ``i`` gives node ``j``'s state when averaging).

        Built from the specs' per-node ``mixing`` dicts when the topology
        declares them (ring/p2p carry hand-tuned weights); otherwise falls
        back to Metropolis-Hastings weights computed from :meth:`neighbor_map`
        and :meth:`edges`, so every topology exposes a usable matrix.
        """
        specs = self.specs()
        n = len(specs)
        if not any(s.mixing for s in specs):
            return self.metropolis_hastings_matrix()
        w = np.zeros((n, n), dtype=np.float64)
        for s in specs:
            if s.mixing:
                for j, weight in s.mixing.items():
                    w[s.index, int(j)] = float(weight)
            else:
                w[s.index, s.index] = 1.0  # isolated/aggregator rows
        return w

    def metropolis_hastings_matrix(self) -> np.ndarray:
        """Symmetric doubly-stochastic mixing weights from the graph alone:
        ``w_uv = 1 / (1 + max(deg(u), deg(v)))``, self-loops absorb the
        remainder.  Safe for arbitrary degree skew."""
        neighbors = self.neighbor_map()
        n = self.world_size
        w = np.zeros((n, n), dtype=np.float64)
        for u, v in self.edges():
            weight = 1.0 / (1.0 + max(len(neighbors[u]), len(neighbors[v])))
            w[int(u), int(v)] = weight
            w[int(v), int(u)] = weight
        for i in range(n):
            w[i, i] = 1.0 - w[i].sum()
        return w

    def consensus_weights(self) -> np.ndarray:
        """Stationary distribution ``π`` of the mixing matrix (``πW = π``).

        This is the weighting under which repeated gossip averaging
        preserves the network mean — uniform for the doubly-stochastic
        matrices the built-in topologies use, and the right consensus
        weighting for any custom row-stochastic matrix.
        """
        return stationary_distribution(self.mixing_matrix())

    def describe(self) -> str:
        """One-line summary for logs."""
        return (
            f"{type(self).__name__}(nodes={self.world_size}, trainers={self.trainer_count()}, "
            f"edges={len(self.edges())}, pattern={self.pattern})"
        )

    def validate(self) -> None:
        """Sanity-check the spec list (ranks contiguous per group, etc.)."""
        specs = self.specs()
        if not specs:
            raise ValueError("topology has no nodes")
        by_group: Dict[str, List[GroupSpec]] = {}
        for s in specs:
            for gname, gs in s.groups.items():
                by_group.setdefault(f"{gname}:{gs.world_size}:{id(gs.comm_config)}", [])
        # per-group rank uniqueness within same world size and name
        seen: Dict[tuple, set] = {}
        for s in specs:
            for gname, gs in s.groups.items():
                key = (gname, _group_identity(gs))
                ranks = seen.setdefault(key, set())
                if gs.rank in ranks:
                    raise ValueError(f"duplicate rank {gs.rank} in group {gname} of {type(self).__name__}")
                ranks.add(gs.rank)


def stationary_distribution(w: np.ndarray) -> np.ndarray:
    """Stationary distribution ``π`` (``πW = π``) of a row-stochastic matrix,
    falling back to uniform for defective or degenerate inputs."""
    n = w.shape[0]
    vals, vecs = np.linalg.eig(w.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, idx])
    total = pi.sum()
    if not np.isfinite(pi).all() or abs(total) < 1e-12:
        return np.full(n, 1.0 / n)
    pi = pi / total
    if (pi < -1e-9).any():
        return np.full(n, 1.0 / n)
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def _group_identity(gs: GroupSpec) -> str:
    cfg = gs.comm_config or {}
    return f"{cfg.get('master_port', cfg.get('broker_url', ''))}|{cfg.get('group', '')}|{gs.world_size}"


def build_topology(name: str, **kwargs) -> Topology:
    """Build a registered topology template by name."""
    return TOPOLOGIES.build(name, **kwargs)
