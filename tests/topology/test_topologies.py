import networkx as nx
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
    g = CentralizedTopology(num_clients=4).graph()
    assert g.degree(0) == 4
    assert g.number_of_edges() == 4


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
    g = RingTopology(num_clients=5).graph()
    assert all(d == 2 for _, d in g.degree())
    assert nx.is_connected(g)


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
    g = PeerToPeerTopology(num_clients=5).graph()
    assert g.number_of_edges() == 10


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


def test_hierarchical_graph_links_labeled():
    g = HierarchicalTopology(num_sites=2, clients_per_site=2).graph()
    links = nx.get_edge_attributes(g, "link")
    assert set(links.values()) == {"inner", "outer"}


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


# ------------------------------------------------------------ import cost
def test_runs_do_not_import_networkx():
    # networkx is 11-13 MB of RSS per engine and worker process; edges() is
    # the primitive every run reads, graph() the only caller of the library.
    # A fresh interpreter, because this module imported it at the top.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = """
import sys
from repro.experiment import Experiment, ExperimentSpec

common = dict(
    data={"dataset": "blobs", "kwargs": {"train_size": 96, "test_size": 32},
          "partition": "iid", "batch_size": 16},
    train={"algorithm": "fedavg", "model": "mlp", "global_rounds": 1,
           "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1}},
)
pooled = Experiment(ExperimentSpec(topology="centralized", num_clients=4,
                                   pool_size=2, **common)).run()
assert pooled.mode == "async", pooled.mode
rounds = Experiment(ExperimentSpec(
    topology="hierarchical",
    topology_kwargs={"num_sites": 2, "clients_per_site": 2}, **common)).run()
assert rounds.mode == "rounds", rounds.mode
assert "networkx" not in sys.modules, "a run imported networkx"
from repro.topology import RingTopology
assert RingTopology(num_clients=4).graph().number_of_edges() == 4
assert "networkx" in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
