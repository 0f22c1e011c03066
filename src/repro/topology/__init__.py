"""Topology module: node graphs and coordination patterns (paper Fig. 1).

A :class:`~repro.topology.base.Topology` declares the participants
(:class:`~repro.topology.base.NodeSpec`), their roles, the communicator
group(s) each joins (inner vs outer, enabling mixed-protocol deployments),
and — for decentralized patterns — the gossip mixing weights derived from
the node graph (its edge list).
"""

from repro.topology.base import GroupSpec, NodeRole, NodeSpec, TOPOLOGIES, Topology, build_topology
from repro.topology.centralized import CentralizedTopology
from repro.topology.custom import CustomGraphTopology
from repro.topology.hierarchical import HierarchicalTopology
from repro.topology.p2p import PeerToPeerTopology
from repro.topology.ring import RingTopology

__all__ = [
    "Topology",
    "NodeSpec",
    "NodeRole",
    "GroupSpec",
    "TOPOLOGIES",
    "build_topology",
    "CentralizedTopology",
    "RingTopology",
    "PeerToPeerTopology",
    "HierarchicalTopology",
    "CustomGraphTopology",
]
