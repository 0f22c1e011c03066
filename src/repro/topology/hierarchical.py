"""Hierarchical tree / hub-and-spoke topology (Fig. 1d and Fig. 7a).

Multiple *sites*, each a dense inner group (site head at inner rank 0,
trainers below) connected over a fast protocol; site heads join a sparse
*outer* group (global root at outer rank 0) over a slow protocol.  This is
the paper's cross-facility pattern: "aggregation within a site can leverage
bandwidth-optimal MPI collectives ... cross-site communication may use gRPC".

Shards are numbered globally across trainers (site-major), so data
partitioning composes with any site layout.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.topology.base import GroupSpec, NodeRole, NodeSpec, SiteGroup, TOPOLOGIES, Topology

__all__ = ["HierarchicalTopology"]


@TOPOLOGIES.register("hierarchical", "tree", "hub_spoke")
class HierarchicalTopology(Topology):
    """``num_sites`` inner groups of ``clients_per_site`` trainers each.

    ``inner_comm``/``outer_comm`` configs may use *different protocols*
    (e.g. torchdist inner + grpc outer) — the mixed-protocol deployment of
    Fig. 7.  Each site's inner communicator gets a distinct rendezvous
    (port/group suffix) derived from its site id.
    """

    pattern = "hierarchical"

    def __init__(
        self,
        num_sites: int = 2,
        clients_per_site: int = 3,
        inner_comm: Optional[Dict[str, Any]] = None,
        outer_comm: Optional[Dict[str, Any]] = None,
        site_sizes: Optional[Sequence[int]] = None,
    ) -> None:
        if site_sizes is not None:
            self.site_sizes = [int(s) for s in site_sizes]
        else:
            self.site_sizes = [clients_per_site] * num_sites
        if len(self.site_sizes) < 1 or any(s < 1 for s in self.site_sizes):
            raise ValueError("every site needs at least one trainer")
        self.num_sites = len(self.site_sizes)
        self.inner_comm = dict(inner_comm or {"backend": "torchdist"})
        self.outer_comm = dict(outer_comm or {"backend": "grpc"})
        self._specs: Optional[List[NodeSpec]] = None

    def _site_inner_cfg(self, site: int) -> Dict[str, Any]:
        """Per-site copy of the inner comm config with a unique rendezvous."""
        cfg = copy.deepcopy(self.inner_comm)
        if "master_port" in cfg:
            cfg["master_port"] = int(cfg["master_port"]) + site
        cfg["group"] = f"{cfg.get('group', 'inner')}-site{site}"
        cfg.setdefault("group_name", f"site{site}")
        cfg["group_name"] = f"{cfg['group_name']}"
        return cfg

    def specs(self) -> List[NodeSpec]:
        if self._specs is None:
            outer_world = self.num_sites + 1
            out: List[NodeSpec] = [
                NodeSpec(
                    name="root",
                    index=0,
                    role=NodeRole.AGGREGATOR,
                    groups={"outer": GroupSpec("outer", 0, outer_world, self.outer_comm)},
                )
            ]
            index = 1
            shard = 0
            for site, size in enumerate(self.site_sizes):
                inner_cfg = self._site_inner_cfg(site)
                inner_world = size + 1
                out.append(
                    NodeSpec(
                        name=f"site{site}_head",
                        index=index,
                        role=NodeRole.RELAY,
                        groups={
                            "inner": GroupSpec("inner", 0, inner_world, inner_cfg),
                            "outer": GroupSpec("outer", site + 1, outer_world, self.outer_comm),
                        },
                    )
                )
                index += 1
                for c in range(size):
                    out.append(
                        NodeSpec(
                            name=f"site{site}_client{c}",
                            index=index,
                            role=NodeRole.TRAINER,
                            groups={"inner": GroupSpec("inner", c + 1, inner_world, inner_cfg)},
                            shard=shard,
                        )
                    )
                    index += 1
                    shard += 1
            self._specs = out
        return self._specs

    def site_groups(self) -> List[SiteGroup]:
        """Per-site (head, trainers) structure in engine-node indices.

        Index arithmetic mirrors :meth:`specs`: the root is node 0, then each
        site contributes its head followed by its trainers."""
        out: List[SiteGroup] = []
        index = 1
        for site, size in enumerate(self.site_sizes):
            head = index
            trainers = list(range(index + 1, index + 1 + size))
            out.append(SiteGroup(site=site, head=head, trainers=trainers))
            index += 1 + size
        return out

    def edges(self) -> List[Tuple[int, int]]:
        groups = self.site_groups()
        return [(0, g.head) for g in groups] + [
            (g.head, trainer) for g in groups for trainer in g.trainers
        ]
