"""Decentralized async gossip: completion on every gossip topology, neighbor
selection and mixing knobs, per-edge latency/loss accounting, codec routing,
consensus metrics, and the async-vs-barrier makespan ordering."""

import numpy as np
import pytest

from repro.engine import Engine
from repro.engine.callbacks import Callback
from repro.engine.metrics import StopRun
from repro.experiment import DataSpec, ExperimentSpec, PluginSpec, TrainSpec
from repro.scheduler import GossipScheduler, build_scheduler

COMPUTE = {"latency": "lognormal", "mean": 0.5, "sigma": 0.5, "client_spread": 0.5}
EDGE = {"latency": "lognormal", "mean": 0.3, "sigma": 0.5, "client_spread": 0.5}


def gossip_engine(fresh_port, *, topology="ring", scheduler=None, algorithm="fedavg",
                  topology_kwargs=None, algorithm_kwargs=None, rounds=3, **plugins):
    return Engine.from_spec(ExperimentSpec(
        topology=topology,
        topology_kwargs={
            "num_clients": 4,
            "inner_comm": {"backend": "torchdist", "master_port": fresh_port},
            **(topology_kwargs or {}),
        },
        data=DataSpec(dataset="blobs", kwargs={"train_size": 256, "test_size": 64}),
        train=TrainSpec(algorithm=algorithm,
                        algorithm_kwargs=algorithm_kwargs or {"lr": 0.1, "local_epochs": 1},
                        model="mlp", global_rounds=rounds),
        plugins=PluginSpec(**plugins),
        scheduler=scheduler,
    ))


def gossip_spec(**kw):
    spec = {
        "name": "gossip_async",
        "heterogeneity": dict(COMPUTE),
        "edge_heterogeneity": dict(EDGE),
    }
    spec.update(kw)
    return spec


CUSTOM_KW = {"num_clients": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]]}


# ------------------------------------------------------------ topology coverage
@pytest.mark.parametrize(
    "topology,topo_kw",
    [
        ("ring", {"num_clients": 4}),
        ("p2p", {"num_clients": 3}),
        ("custom", CUSTOM_KW),
    ],
)
def test_completes_on_every_gossip_topology(fresh_port, topology, topo_kw):
    eng = gossip_engine(
        fresh_port, topology=topology, scheduler=gossip_spec(), topology_kwargs=topo_kw
    )
    metrics = eng.run_async(total_updates=4 * topo_kw["num_clients"])
    state = eng.global_state()
    eng.shutdown()
    assert metrics.total_applied() >= 4 * topo_kw["num_clients"]
    assert all(np.isfinite(v).all() for v in state.values())
    assert metrics.final_accuracy() is not None
    assert metrics.final_accuracy() > 0.6


def test_default_scheduler_on_gossip_topology_is_gossip_async(fresh_port):
    eng = gossip_engine(fresh_port)
    eng.run_async(total_updates=4)
    assert isinstance(eng.scheduler, GossipScheduler)
    eng.shutdown()


def test_flat_scheduler_still_rejects_gossip_topologies(fresh_port):
    eng = gossip_engine(fresh_port)
    with pytest.raises(ValueError, match="server-pattern"):
        eng.run_async(total_updates=4, scheduler="fedasync")
    eng.shutdown()


def test_gossip_scheduler_rejects_server_topologies(fresh_port):
    eng = Engine.from_spec(ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": 2,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 64, "test_size": 32}),
        train=TrainSpec(model="mlp", global_rounds=1),
    ))
    with pytest.raises(ValueError, match="gossip-pattern"):
        eng.run_async(total_updates=2, scheduler="gossip_async")
    eng.shutdown()


def test_gossip_rejects_delta_uploading_algorithms(fresh_port):
    eng = gossip_engine(fresh_port, algorithm="scaffold", scheduler=gossip_spec())
    with pytest.raises(ValueError, match="full-state"):
        eng.run_async(total_updates=4)
    eng.shutdown()


def test_invalid_knobs_rejected():
    with pytest.raises(ValueError, match="neighbor_selection"):
        GossipScheduler(neighbor_selection="everyone")
    with pytest.raises(ValueError, match="mixing"):
        GossipScheduler(mixing="magic")
    with pytest.raises(ValueError, match="neighbor_k"):
        GossipScheduler(neighbor_selection="random_k", neighbor_k=0)
    with pytest.raises(ValueError, match="site scope"):
        GossipScheduler().bind(object(), clients=[1, 2])


def test_registry_aliases():
    assert isinstance(build_scheduler("gossip_async"), GossipScheduler)
    assert isinstance(build_scheduler("gossip"), GossipScheduler)
    assert isinstance(build_scheduler("ad_psgd"), GossipScheduler)


# ------------------------------------------------------------ knob behaviour
@pytest.mark.parametrize(
    "extra",
    [
        {"neighbor_selection": "random_k", "neighbor_k": 1},
        {"neighbor_selection": "pairwise"},
        {"mixing": "metropolis_hastings"},
    ],
)
def test_selection_and_mixing_modes_complete(fresh_port, extra):
    eng = gossip_engine(fresh_port, scheduler=gossip_spec(**extra))
    metrics = eng.run_async(total_updates=8)
    state = eng.global_state()
    eng.shutdown()
    assert metrics.total_applied() == 8
    assert all(np.isfinite(v).all() for v in state.values())


def test_pairwise_sends_one_message_per_step(fresh_port):
    eng = gossip_engine(fresh_port, scheduler=gossip_spec(neighbor_selection="pairwise"))
    eng.run_async(total_updates=8)
    sched = eng.scheduler
    eng.shutdown()
    assert sched.msgs_sent == 8  # one target per completed local step


def test_all_neighbors_mode_message_count(fresh_port):
    # on a 4-ring each peer has 2 neighbors: 2 messages per completed step
    eng = gossip_engine(fresh_port, scheduler=gossip_spec(neighbor_selection="all"))
    eng.run_async(total_updates=8)
    sched = eng.scheduler
    eng.shutdown()
    assert sched.msgs_sent == 16


def test_mixing_is_a_convex_combination(fresh_port):
    """If every peer holds the same state, mixing must reproduce it exactly
    (rows stay stochastic), and newest-per-sender dedup applies."""
    sched = GossipScheduler(staleness="constant")
    eng = gossip_engine(fresh_port, scheduler=sched)
    eng.setup_async()
    sched.bind(eng)
    sched._ensure_states()
    common = {k: v.copy() for k, v in sched.peer_states[0].items()}
    sched.inbox[0] = [
        {"sender": 1, "state": common, "weight": 1.0 / 3.0, "sent_steps": 0},
        {"sender": 1, "state": common, "weight": 1.0 / 3.0, "sent_steps": 0},
        {"sender": 3, "state": common, "weight": 1.0 / 3.0, "sent_steps": 0},
    ]
    taus = sched._mix(0, common)
    assert taus == [0, 0]  # two distinct senders after dedup
    for key, v in sched.peer_states[0].items():
        np.testing.assert_allclose(np.asarray(v), np.asarray(common[key]), rtol=1e-6)
    assert not sched.inbox[0]  # consumed
    eng.shutdown()


# ------------------------------------------------------------ metrics
def test_round_records_carry_consensus_and_edge_bytes(fresh_port):
    eng = gossip_engine(fresh_port, scheduler=gossip_spec())
    metrics = eng.run_async(total_updates=8)
    eng.shutdown()
    assert len(metrics.history) == 8  # one record per applied update
    for rec in metrics.history:
        assert rec.consensus_dist is not None and np.isfinite(rec.consensus_dist)
        assert rec.applied == 1
        assert rec.tier == "global"
    total_edge = sum(b for rec in metrics.history for b in rec.per_edge.values())
    assert total_edge == metrics.total_bytes() > 0
    # edge keys name real directed ring edges
    for rec in metrics.history:
        for key in rec.per_edge:
            u, v = map(int, key.split("->"))
            assert abs(u - v) in (1, 3)  # ring neighbors (mod 4)


class _Spy(Callback):
    """Copies the gossip fields of each record at the moment it sees it."""

    def __init__(self, stop_at=None):
        self.seen = []
        self.stop_at = stop_at

    def on_update(self, record, metrics):
        self.seen.append((record.bytes_sent, record.consensus_dist, dict(record.per_edge)))
        if len(self.seen) == self.stop_at:
            raise StopRun("spy")


def test_callbacks_see_complete_gossip_records(fresh_port):
    spy = _Spy()
    eng = gossip_engine(fresh_port, scheduler=gossip_spec())
    eng.metrics.callbacks.append(spy)
    metrics = eng.run_async(total_updates=8)
    eng.shutdown()
    assert len(spy.seen) == len(metrics.history) == 8
    for (bytes_sent, dist, per_edge), rec in zip(spy.seen, metrics.history):
        assert bytes_sent == rec.bytes_sent > 0
        assert dist is not None and dist == rec.consensus_dist
        assert per_edge and per_edge == dict(rec.per_edge)


def test_stopping_callback_leaves_its_gossip_record_complete(fresh_port):
    spy = _Spy(stop_at=3)
    eng = gossip_engine(fresh_port, scheduler=gossip_spec())
    eng.metrics.callbacks.append(spy)
    metrics = eng.run_async(total_updates=8)
    eng.shutdown()
    assert len(metrics.history) == 3
    last = metrics.history[-1]
    assert last.bytes_sent > 0 and last.consensus_dist is not None and last.per_edge


def test_consensus_distance_contracts_under_pure_averaging(fresh_port):
    """With learning switched off (lr=0), only mixing acts: since all peers
    start from the same init, consensus distance must stay at ~0; with
    learning on, it becomes positive."""
    eng = gossip_engine(fresh_port, scheduler=gossip_spec(staleness="constant"))
    eng.run_async(total_updates=4)  # learning on: disagreement appears
    learned = [r.consensus_dist for r in eng.metrics.history]
    eng.shutdown()
    assert max(learned) > 0

    frozen = gossip_engine(
        fresh_port + 1,
        scheduler=gossip_spec(),
        algorithm_kwargs={"lr": 0.0, "momentum": 0.0, "local_epochs": 1},
        rounds=1,
    )
    metrics = frozen.run_async(total_updates=4)
    frozen.shutdown()
    assert all(r.consensus_dist == pytest.approx(0.0, abs=1e-6) for r in metrics.history)


def test_track_consensus_off_skips_distance(fresh_port):
    eng = gossip_engine(fresh_port, scheduler=gossip_spec(track_consensus=False))
    metrics = eng.run_async(total_updates=4)
    eng.shutdown()
    assert all(r.consensus_dist is None for r in metrics.history)


def test_message_loss_does_not_stall_federation(fresh_port):
    lossy = dict(EDGE)
    lossy["dropout"] = 0.4
    eng = gossip_engine(fresh_port, scheduler=gossip_spec(edge_heterogeneity=lossy))
    metrics = eng.run_async(total_updates=12)
    sched = eng.scheduler
    state = eng.global_state()
    eng.shutdown()
    assert metrics.total_applied() == 12
    assert sched.msgs_lost > 0
    assert all(np.isfinite(v).all() for v in state.values())


def test_compute_dropout_retries_peer(fresh_port):
    flaky = dict(COMPUTE)
    flaky["dropout"] = 0.3
    eng = gossip_engine(fresh_port, scheduler=gossip_spec(heterogeneity=flaky))
    metrics = eng.run_async(total_updates=12)
    sched = eng.scheduler
    eng.shutdown()
    assert metrics.total_applied() == 12
    assert sched.dropped > 0


# ------------------------------------------------------------ codec routing
def test_exchange_routes_through_compressor(fresh_port):
    eng = gossip_engine(
        fresh_port,
        scheduler=gossip_spec(),
        compressor="topk",
        compressor_kwargs={"ratio": 4.0},
    )
    metrics = eng.run_async(total_updates=8)
    dense = 0
    sched = eng.scheduler
    state = eng.global_state()
    eng.shutdown()
    # compressed exchanges move fewer bytes than the dense state would
    n_params = sum(v.size for v in state.values() if np.issubdtype(v.dtype, np.floating))
    dense = n_params * 4
    per_msg = metrics.total_bytes() / max(1, sched.msgs_sent)
    assert per_msg < dense
    assert all(np.isfinite(v).all() for v in state.values())


def test_exchange_applies_dp_noise(fresh_port):
    from repro.privacy.dp import DifferentialPrivacy

    eng = gossip_engine(
        fresh_port,
        scheduler=gossip_spec(),
        dp=lambda: DifferentialPrivacy(epsilon=2.0, clip_norm=1.0, seed=0),
    )
    metrics = eng.run_async(total_updates=8)
    state = eng.global_state()
    eng.shutdown()
    assert metrics.total_applied() == 8
    assert all(np.isfinite(v).all() for v in state.values())


# ------------------------------------------------------------ barrier vs async
def test_barrier_mode_counts_a_round_per_record(fresh_port):
    eng = gossip_engine(fresh_port, scheduler=gossip_spec(barrier=True))
    metrics = eng.run_async(total_updates=12)
    eng.shutdown()
    assert metrics.total_applied() == 12
    assert len(metrics.history) == 3  # 4 peers per barrier round
    assert all(r.applied == 4 for r in metrics.history)


def test_async_beats_barrier_on_virtual_makespan(fresh_port):
    """The tentpole ordering: equal aggregated-update counts, same seed and
    latency models — async gossip finishes in strictly less virtual time."""
    eng_a = gossip_engine(fresh_port, scheduler=gossip_spec())
    async_m = eng_a.run_async(total_updates=16)
    eng_a.shutdown()
    eng_b = gossip_engine(fresh_port + 1, scheduler=gossip_spec(barrier=True))
    barrier_m = eng_b.run_async(total_updates=16)
    eng_b.shutdown()
    assert async_m.total_applied() == barrier_m.total_applied() == 16
    assert async_m.sim_makespan() < barrier_m.sim_makespan()


def test_staleness_observed_on_slow_edges(fresh_port):
    """A heavy-tailed edge model makes some replicas arrive superseded."""
    slow_edges = {"latency": "lognormal", "mean": 2.0, "sigma": 1.2, "client_spread": 1.0}
    eng = gossip_engine(fresh_port, scheduler=gossip_spec(edge_heterogeneity=slow_edges))
    metrics = eng.run_async(total_updates=24)
    eng.shutdown()
    assert any(r.staleness_mean > 0 for r in metrics.history)


# ------------------------------------------------------------ lifecycle
def test_run_async_continues_across_calls_and_drains(fresh_port):
    eng = gossip_engine(fresh_port, scheduler=gossip_spec())
    m1 = eng.run_async(total_updates=8)
    assert m1.total_applied() == 8
    assert not eng.scheduler._in_flight and not eng.scheduler.queue
    m2 = eng.run_async(total_updates=4)
    eng.shutdown()
    assert m2.total_applied() == 12
    assert eng.scheduler.applied == 12


def test_drain_adopts_final_states_into_nodes(fresh_port):
    eng = gossip_engine(fresh_port, scheduler=gossip_spec())
    eng.run_async(total_updates=8)
    sched = eng.scheduler
    for peer in sched.peers:
        node_state = eng.nodes[peer].model.state_dict()
        for key, v in sched.peer_states[peer].items():
            np.testing.assert_array_equal(np.asarray(node_state[key]), np.asarray(v))
    eng.shutdown()


def test_evaluation_cadence_and_final_eval(fresh_port):
    eng = gossip_engine(fresh_port, scheduler=gossip_spec())
    metrics = eng.run_async(total_updates=12)
    eng.shutdown()
    evaluated = [r for r in metrics.history if r.eval_accuracy is not None]
    assert 2 <= len(evaluated) <= 4  # ~once per 4-update round-equivalent
    assert metrics.history[-1].eval_accuracy is not None
