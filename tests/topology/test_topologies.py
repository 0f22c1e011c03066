import pytest

from repro.topology import (
    CentralizedTopology,
    CustomGraphTopology,
    HierarchicalTopology,
    NodeRole,
    PeerToPeerTopology,
    RingTopology,
    TOPOLOGIES,
    build_topology,
)


# ------------------------------------------------------------ centralized
def test_centralized_structure():
    topo = CentralizedTopology(num_clients=5)
    specs = topo.specs()
    assert topo.world_size == 6
    assert specs[0].role is NodeRole.AGGREGATOR and specs[0].shard is None
    assert all(s.role is NodeRole.TRAINER for s in specs[1:])
    assert [s.shard for s in specs[1:]] == [0, 1, 2, 3, 4]
    ranks = [s.inner.rank for s in specs]
    assert ranks == list(range(6))
    topo.validate()


def test_centralized_graph_is_star():
    topo = CentralizedTopology(num_clients=4)
    assert len(topo.edges()) == 4
    assert topo.neighbor_map()[0] == [1, 2, 3, 4]
    assert all(topo.neighbor_map()[i] == [0] for i in range(1, 5))


def test_centralized_requires_clients():
    with pytest.raises(ValueError):
        CentralizedTopology(num_clients=0)


# ------------------------------------------------------------ ring
def test_ring_mixing_weights_sum_to_one():
    topo = RingTopology(num_clients=5)
    for spec in topo.specs():
        assert sum(spec.mixing.values()) == pytest.approx(1.0)
        assert len(spec.mixing) == 3  # self + 2 neighbors


def test_ring_neighbors_are_adjacent():
    topo = RingTopology(num_clients=6)
    spec = topo.specs()[2]
    assert set(spec.mixing) == {1, 2, 3}


def test_ring_graph_is_cycle():
    neighbors = RingTopology(num_clients=5).neighbor_map()
    assert all(len(peers) == 2 for peers in neighbors.values())
    # walking from node 0 visits every node once before returning: one cycle
    prev, node, seen = None, 0, []
    while node not in seen:
        seen.append(node)
        prev, node = node, next(p for p in neighbors[node] if p != prev)
    assert sorted(seen) == list(range(5)) and node == 0


def test_ring_minimum_size():
    with pytest.raises(ValueError):
        RingTopology(num_clients=2)


# ------------------------------------------------------------ p2p
def test_p2p_uniform_mixing():
    topo = PeerToPeerTopology(num_clients=4)
    for spec in topo.specs():
        assert len(spec.mixing) == 4
        assert all(w == pytest.approx(0.25) for w in spec.mixing.values())


def test_p2p_graph_complete():
    topo = PeerToPeerTopology(num_clients=5)
    assert len(topo.edges()) == 10
    assert all(len(peers) == 4 for peers in topo.neighbor_map().values())


# ------------------------------------------------------------ hierarchical
def test_hierarchical_structure():
    topo = HierarchicalTopology(num_sites=2, clients_per_site=3)
    specs = topo.specs()
    assert topo.world_size == 1 + 2 * (1 + 3)
    root = specs[0]
    assert root.role is NodeRole.AGGREGATOR
    assert root.outer.rank == 0 and root.outer.world_size == 3
    heads = [s for s in specs if s.role is NodeRole.RELAY]
    assert len(heads) == 2
    for i, head in enumerate(heads):
        assert head.inner.rank == 0
        assert head.outer.rank == i + 1
    trainers = [s for s in specs if s.role is NodeRole.TRAINER]
    assert [t.shard for t in trainers] == list(range(6))
    topo.validate()


def test_hierarchical_per_site_rendezvous_is_distinct():
    topo = HierarchicalTopology(num_sites=3, clients_per_site=2,
                                inner_comm={"backend": "torchdist", "master_port": 29000})
    heads = [s for s in topo.specs() if s.role is NodeRole.RELAY]
    ports = {h.inner.comm_config["master_port"] for h in heads}
    assert len(ports) == 3


def test_hierarchical_mixed_protocols():
    topo = HierarchicalTopology(
        inner_comm={"backend": "torchdist"}, outer_comm={"backend": "grpc"}
    )
    specs = topo.specs()
    head = next(s for s in specs if s.role is NodeRole.RELAY)
    assert head.inner.comm_config["backend"] == "torchdist"
    assert head.outer.comm_config["backend"] == "grpc"


def test_hierarchical_uneven_sites():
    topo = HierarchicalTopology(site_sizes=[1, 4, 2])
    assert topo.trainer_count() == 7
    assert topo.num_sites == 3


def test_hierarchical_edges_split_into_outer_and_inner_links():
    topo = HierarchicalTopology(num_sites=2, clients_per_site=2)
    heads = [g.head for g in topo.site_groups()]
    outer = [(u, v) for u, v in topo.edges() if u == 0]
    inner = [(u, v) for u, v in topo.edges() if u != 0]
    assert outer == [(0, h) for h in heads]  # root to each site head
    assert inner == [(g.head, t) for g in topo.site_groups() for t in g.trainers]
    assert topo.neighbor_map()[0] == heads


def test_hierarchical_validations():
    with pytest.raises(ValueError):
        HierarchicalTopology(site_sizes=[0, 2])


# ------------------------------------------------------------ custom graph
def test_custom_graph_metropolis_weights():
    # path graph 0-1-2: degree skew exercises MH weighting
    topo = CustomGraphTopology(3, edges=[[0, 1], [1, 2]])
    specs = topo.specs()
    for spec in specs:
        assert sum(spec.mixing.values()) == pytest.approx(1.0)
    # symmetric: w_01 == w_10
    assert specs[0].mixing[1] == pytest.approx(specs[1].mixing[0])


def test_custom_graph_requires_connected():
    with pytest.raises(ValueError, match="connected"):
        CustomGraphTopology(4, edges=[[0, 1], [2, 3]])


def test_custom_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        CustomGraphTopology(3, edges=[[0, 9]])
    with pytest.raises(ValueError):
        CustomGraphTopology(3, edges=[[1, 1]])


def test_registry_names():
    for name in ["centralized", "ring", "p2p", "hierarchical", "custom", "hub_spoke"]:
        assert name in TOPOLOGIES
    topo = build_topology("star", num_clients=2)
    assert isinstance(topo, CentralizedTopology)


def test_describe_mentions_counts():
    text = CentralizedTopology(num_clients=3).describe()
    assert "nodes=4" in text and "trainers=3" in text
