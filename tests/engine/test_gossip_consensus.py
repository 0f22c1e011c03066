"""``Engine.global_state()`` on gossip topologies: the consensus
(mixing-weighted) average of the peers — not node 0's state — and
``evaluate()`` pinned to exactly that state.  Also covers the topology-level
neighbor/mixing-matrix API the consensus weighting is built on."""

import numpy as np
import pytest

from repro.engine import Engine
from repro.experiment import DataSpec, ExperimentSpec, TrainSpec
from repro.topology import build_topology


def ring_engine(fresh_port, scheduler=None):
    return Engine.from_spec(ExperimentSpec(
        topology="ring",
        topology_kwargs={
            "num_clients": 4,
            "inner_comm": {"backend": "torchdist", "master_port": fresh_port},
        },
        data=DataSpec(dataset="blobs", kwargs={"train_size": 128, "test_size": 64}),
        train=TrainSpec(algorithm="fedavg", algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
                        model="mlp", global_rounds=1),
        scheduler=scheduler,
    ))


# ------------------------------------------------------------ topology API
@pytest.mark.parametrize(
    "name,kw",
    [
        ("ring", {"num_clients": 5}),
        ("p2p", {"num_clients": 4}),
        ("custom", {"num_clients": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}),
        ("centralized", {"num_clients": 3}),
        ("hierarchical", {"num_sites": 2, "clients_per_site": 2}),
    ],
)
def test_mixing_matrix_is_row_stochastic(name, kw):
    topo = build_topology(name, **kw)
    w = topo.mixing_matrix()
    assert w.shape == (topo.world_size, topo.world_size)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
    assert (w >= 0).all()


@pytest.mark.parametrize(
    "name,kw",
    [
        ("ring", {"num_clients": 5}),
        ("p2p", {"num_clients": 4}),
        ("centralized", {"num_clients": 3}),
        ("custom", {"num_clients": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]]}),
        ("hierarchical", {"num_sites": 2, "clients_per_site": 3}),
    ],
)
def test_metropolis_hastings_matrix_is_doubly_stochastic(name, kw):
    topo = build_topology(name, **kw)
    w = topo.metropolis_hastings_matrix()
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-9)
    np.testing.assert_allclose(w, w.T, atol=1e-12)


@pytest.mark.parametrize(
    "name,kw",
    [("centralized", {"num_clients": 3}), ("hierarchical", {"num_sites": 2, "clients_per_site": 2})],
)
def test_mixing_matrix_without_declared_weights_is_metropolis_hastings(name, kw):
    # no spec carries mixing weights, so the matrix comes from the edge list
    topo = build_topology(name, **kw)
    assert not any(s.mixing for s in topo.specs())
    np.testing.assert_array_equal(topo.mixing_matrix(), topo.metropolis_hastings_matrix())
    neighbors = topo.neighbor_map()
    for u, v in topo.edges():
        assert topo.mixing_matrix()[u, v] == 1.0 / (1.0 + max(len(neighbors[u]), len(neighbors[v])))


def test_neighbor_map_matches_graph():
    topo = build_topology("ring", num_clients=4)
    nmap = topo.neighbor_map()
    assert nmap == {0: [1, 3], 1: [0, 2], 2: [1, 3], 3: [0, 2]}


def test_consensus_weights_uniform_for_doubly_stochastic():
    for name, kw in [("ring", {"num_clients": 4}), ("p2p", {"num_clients": 5})]:
        topo = build_topology(name, **kw)
        pi = topo.consensus_weights()
        n = kw["num_clients"]
        np.testing.assert_allclose(pi, np.full(n, 1.0 / n), atol=1e-9)


def test_stationary_distribution_of_asymmetric_chain():
    from repro.topology.base import stationary_distribution

    w = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi = stationary_distribution(w)
    np.testing.assert_allclose(pi, [5.0 / 6.0, 1.0 / 6.0], atol=1e-9)
    np.testing.assert_allclose(pi @ w, pi, atol=1e-9)


def test_gossip_consensus_weights_follow_the_matrix_in_use(fresh_port):
    """Under mixing=metropolis_hastings the scheduler's consensus weighting
    must come from the MH matrix it actually mixes with, not from the
    topology's declared matrix."""
    from repro.scheduler import GossipScheduler
    from repro.topology.base import stationary_distribution

    for mode in ("topology", "metropolis_hastings"):
        sched = GossipScheduler(mixing=mode)
        eng = ring_engine(fresh_port + (0 if mode == "topology" else 1), scheduler=sched)
        sched.bind(eng)
        np.testing.assert_allclose(sched._pi, stationary_distribution(sched._w), atol=1e-12)
        eng.shutdown()


# ------------------------------------------------------------ engine behaviour
def test_global_state_is_consensus_average_not_node0(fresh_port):
    eng = ring_engine(fresh_port)
    eng.run(1)  # one synchronous gossip round: peers now genuinely differ
    state = eng.global_state()
    weights = eng.topology.consensus_weights()
    node_states = [n.model.state_dict() for n in eng.nodes]
    for key, v in state.items():
        if not np.issubdtype(np.asarray(v).dtype, np.floating):
            continue
        expected = np.zeros(np.asarray(v).shape, dtype=np.float64)
        for w, s in zip(weights, node_states):
            expected += w * np.asarray(s[key], dtype=np.float64)
        np.testing.assert_allclose(np.asarray(v), expected.astype(v.dtype), rtol=1e-6)
        # and it is NOT simply node 0's state
    diffs = [
        np.abs(np.asarray(state[k]) - np.asarray(node_states[0][k])).max()
        for k in state
        if np.issubdtype(np.asarray(state[k]).dtype, np.floating)
    ]
    assert max(diffs) > 0
    eng.shutdown()


def test_evaluate_pinned_to_consensus_state(fresh_port):
    eng = ring_engine(fresh_port)
    eng.run(1)
    loss, acc = eng.evaluate()
    # evaluating the consensus state directly on any node must agree exactly
    consensus = eng.global_state()
    direct_loss, direct_acc = eng.nodes[0].evaluate(consensus, eng.eval_max_batches)
    eng.shutdown()
    assert loss == pytest.approx(direct_loss)
    assert acc == pytest.approx(direct_acc)


def test_async_gossip_global_state_uses_scheduler_ledger(fresh_port):
    spec = {
        "name": "gossip_async",
        "heterogeneity": {"latency": "constant", "mean": 1.0},
        "edge_heterogeneity": {"latency": "constant", "mean": 0.5},
    }
    eng = ring_engine(fresh_port, scheduler=spec)
    eng.run_async(total_updates=8)
    state = eng.global_state()
    ledger = eng.scheduler.consensus_state()
    for key in state:
        np.testing.assert_array_equal(np.asarray(state[key]), np.asarray(ledger[key]))
    eng.shutdown()


def test_server_topologies_unaffected(fresh_port):
    eng = Engine.from_spec(ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": 2,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 64, "test_size": 32}, batch_size=16),
        train=TrainSpec(model="mlp", global_rounds=1),
    ))
    eng.run(1)
    # the aggregator's state remains the source of truth on server patterns
    agg = next(n for n in eng.nodes if n.role.aggregates())
    state = eng.global_state()
    for key in state:
        np.testing.assert_array_equal(np.asarray(state[key]), np.asarray(agg.global_state[key]))
    eng.shutdown()
