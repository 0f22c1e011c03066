"""End-to-end scheduler runs: convergence, staleness math, deadlines,
dropout resilience, and the sync vs. async makespan ordering."""


import numpy as np
import pytest

from repro.engine import Engine
from repro.experiment import DataSpec, ExperimentSpec, FaultSpec, PluginSpec, TrainSpec
from repro.scheduler import (
    FedAsyncScheduler,
    FedBuffScheduler,
    SemiSyncScheduler,
    SyncScheduler,
    build_scheduler,
)

LOGNORMAL = {"latency": "lognormal", "mean": 1.0, "sigma": 0.8}


def blobs_engine(fresh_port, *, scheduler=None, algorithm="fedavg", clients=4,
                 eval_every=1, plugins=None, **faults):
    return Engine.from_spec(ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": clients,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 512, "test_size": 128}),
        train=TrainSpec(algorithm=algorithm, algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
                        model="mlp", global_rounds=3, eval_every=eval_every),
        plugins=PluginSpec(**(plugins or {})),
        faults=FaultSpec(**faults),
        scheduler=scheduler,
    ))


# ---------------------------------------------------------------- convergence
def test_fedasync_converges_on_blobs(fresh_port):
    eng = blobs_engine(fresh_port, scheduler={"name": "fedasync", "heterogeneity": LOGNORMAL})
    metrics = eng.run_async(total_updates=16)
    eng.shutdown()
    assert metrics.total_applied() == 16
    assert metrics.final_accuracy() is not None
    assert metrics.final_accuracy() > 0.7


def test_fedbuff_converges_and_flushes_at_k(fresh_port):
    eng = blobs_engine(
        fresh_port,
        scheduler={"name": "fedbuff", "buffer_size": 4, "heterogeneity": LOGNORMAL},
    )
    metrics = eng.run_async(total_updates=16)
    sched = eng.scheduler
    eng.shutdown()
    assert metrics.final_accuracy() is not None
    assert metrics.final_accuracy() > 0.7
    # 16 updates / K=4 -> exactly 4 flushes, each record merging 4 updates
    assert sched.flush_count == 4
    assert all(rec.applied == 4 for rec in metrics.history)


def test_sync_policy_converges(fresh_port):
    eng = blobs_engine(fresh_port, scheduler={"name": "sync", "heterogeneity": LOGNORMAL})
    metrics = eng.run_async(total_updates=12)
    eng.shutdown()
    assert metrics.final_accuracy() is not None
    assert metrics.final_accuracy() > 0.7
    # barrier rounds: zero staleness ever
    assert all(rec.staleness_mean == 0.0 for rec in metrics.history)


# ---------------------------------------------------------------- staleness math
def test_fedbuff_flush_math_single_client():
    """One client, K=2, constant discount: the flush must move the global
    state by server_lr * mean(delta)."""
    sched = FedBuffScheduler(buffer_size=2, server_lr=1.0, staleness="constant")

    # drive ingest() directly with synthetic events and a dict-backed state
    from repro.scheduler.events import PendingUpdate

    base = {"w": np.zeros(3, dtype=np.float32)}
    holder = {"state": dict(base)}

    sched.discount = lambda tau: 1.0
    type(sched).global_state = property(
        lambda self: holder["state"],
        lambda self, v: holder.__setitem__("state", v),
    )
    try:
        deltas = [np.array([1.0, 2.0, 3.0], np.float32), np.array([3.0, 2.0, 1.0], np.float32)]
        sched.engine = None
        sched.record_aggregation = lambda merged, staleness: None  # metrics need an engine
        for i, d in enumerate(deltas):
            ev = PendingUpdate(
                arrival=float(i), seq=i, client=i, version=0, dispatched_at=0.0,
                base_state=base,
            )
            sched.ingest(ev, {"state": {"w": base["w"] + d}, "meta": {}, "stats": {}})
        expected = (deltas[0] + deltas[1]) / 2.0
        np.testing.assert_allclose(holder["state"]["w"], expected, rtol=1e-6)
        assert sched.version == 1 and sched.applied == 2
    finally:
        del type(sched).global_state  # restore the class property


def test_fedasync_staleness_discount_applied(fresh_port):
    """With alpha=1 and polynomial discount, a fresh update (staleness 0)
    fully replaces the global state; records track mean staleness."""
    eng = blobs_engine(
        fresh_port,
        clients=3,
        scheduler={
            "name": "fedasync",
            "alpha": 1.0,
            "staleness": "polynomial",
            "staleness_kwargs": {"exponent": 1.0},
            "heterogeneity": {"latency": "lognormal", "mean": 1.0, "sigma": 1.0},
        },
    )
    metrics = eng.run_async(total_updates=9)
    eng.shutdown()
    # with 3 concurrent clients, later arrivals trained on older versions
    assert any(rec.staleness_mean > 0 for rec in metrics.history)
    assert all(rec.applied == 1 for rec in metrics.history)


def test_fedasync_rejects_delta_uploading_algorithms(fresh_port):
    eng = blobs_engine(fresh_port, algorithm="scaffold")
    with pytest.raises(ValueError, match="full-state"):
        eng.run_async(total_updates=4, scheduler="fedasync")
    eng.shutdown()


# ---------------------------------------------------------------- deadlines
def test_deadline_rounds_with_injected_stragglers(fresh_port):
    """A deadline shorter than the straggler tail forces carryover: some
    rounds aggregate fewer clients than dispatched, and late arrivals show
    up with positive staleness."""
    eng = blobs_engine(
        fresh_port,
        scheduler={
            "name": "semi_sync",
            "deadline": 1.0,
            "heterogeneity": {"latency": "lognormal", "mean": 1.0, "sigma": 1.2},
        },
    )
    metrics = eng.run_async(total_updates=16)
    eng.shutdown()
    applied_per_round = [rec.applied for rec in metrics.history]
    assert sum(applied_per_round) >= 16
    assert min(applied_per_round) < 4  # at least one round missed stragglers
    assert any(rec.staleness_mean > 0 for rec in metrics.history)  # carryover merged late
    assert metrics.final_accuracy() is not None


def test_sync_barrier_waits_for_slowest(fresh_port):
    """Under a constant latency model the sync makespan is exactly
    rounds * latency (every round waits for the slowest = only latency)."""
    eng = blobs_engine(
        fresh_port,
        scheduler={"name": "sync", "heterogeneity": {"latency": "constant", "mean": 2.0}},
    )
    metrics = eng.run_async(total_updates=12)  # 3 rounds of 4 clients
    eng.shutdown()
    assert metrics.sim_makespan() == pytest.approx(6.0)


# ---------------------------------------------------------------- faults
def test_dropout_does_not_lose_aggregator_state(fresh_port):
    """Dropped updates are discarded without corrupting the global model:
    the run still completes, state stays finite, and every requested update
    is eventually replaced by a redispatch."""
    eng = blobs_engine(
        fresh_port,
        scheduler={
            "name": "fedasync",
            "heterogeneity": {"latency": "uniform", "low": 0.5, "high": 2.0, "dropout": 0.3},
        },
    )
    metrics = eng.run_async(total_updates=12)
    sched = eng.scheduler
    state = eng.global_state()
    eng.shutdown()
    assert metrics.total_applied() == 12  # dropped dispatches did not count
    assert sched.dropped > 0  # the fault model actually fired
    assert all(np.isfinite(v).all() for v in state.values())
    assert metrics.final_accuracy() is not None


def test_dropout_in_semi_sync_rounds(fresh_port):
    eng = blobs_engine(
        fresh_port,
        scheduler={
            "name": "semi_sync",
            "deadline": 1.5,
            "heterogeneity": {"latency": "constant", "mean": 1.0, "dropout": 0.4},
        },
    )
    metrics = eng.run_async(total_updates=8)
    state = eng.global_state()
    eng.shutdown()
    assert metrics.total_applied() >= 8
    assert all(np.isfinite(v).all() for v in state.values())


# ---------------------------------------------------------------- makespan
def test_async_and_semi_sync_beat_sync_wall_clock(fresh_port):
    """The acceptance claim: under the same lognormal straggler model and
    seed, async and semi-sync virtual wall-clock are strictly below sync."""
    hetero = {"latency": "lognormal", "mean": 1.0, "sigma": 1.0}
    makespans = {}
    for i, (name, spec) in enumerate({
        "sync": {"name": "sync", "heterogeneity": hetero},
        "semi_sync": {"name": "semi_sync", "deadline": 1.0, "heterogeneity": hetero},
        "fedasync": {"name": "fedasync", "heterogeneity": hetero},
        "fedbuff": {"name": "fedbuff", "buffer_size": 4, "heterogeneity": hetero},
    }.items()):
        eng = blobs_engine(fresh_port + 100 * (i + 1), scheduler=spec, eval_every=0)
        metrics = eng.run_async(total_updates=16)
        eng.shutdown()
        makespans[name] = metrics.sim_makespan()
    assert makespans["semi_sync"] < makespans["sync"]
    assert makespans["fedasync"] < makespans["sync"]
    assert makespans["fedbuff"] < makespans["sync"]


# ---------------------------------------------------------------- plugins
def test_async_path_applies_differential_privacy(fresh_port):
    """Regression: local_update must privatize uploads exactly like the wire
    path — a DP config must not be silently ignored in async mode."""
    from repro.privacy import DifferentialPrivacy

    eng = blobs_engine(
        fresh_port, plugins={"dp": lambda: DifferentialPrivacy(epsilon=5.0, clip_norm=10.0)}
    )
    eng.setup_async()
    server, trainer = eng.nodes[0], eng.nodes[1]
    payload = server.algorithm.server_payload(server.global_state)
    res = trainer.local_update(payload, 0)
    plain = trainer.model.state_dict()
    eng.shutdown()
    assert "dp" in res["meta"] and res["meta"]["dp"]["epsilon"] == 5.0
    # the uploaded state is the noised version, not the raw local model
    assert any(
        not np.allclose(res["state"][k], plain[k])
        for k in res["state"]
        if np.issubdtype(np.asarray(plain[k]).dtype, np.floating)
    )


def test_async_path_applies_compression_roundtrip(fresh_port):
    eng = blobs_engine(
        fresh_port, plugins={"compressor": "topk", "compressor_kwargs": {"ratio": 5}}
    )
    eng.setup_async()
    server, trainer = eng.nodes[0], eng.nodes[1]
    payload = server.algorithm.server_payload(server.global_state)
    res = trainer.local_update(payload, 0)
    eng.shutdown()
    # decoded back to plain model keys (no wire-format leakage), lossy
    assert set(res["state"]) == set(trainer.model.state_dict())
    assert all(np.isfinite(v).all() for v in res["state"].values())


def test_scheduler_honors_engine_client_fraction(fresh_port):
    """`client_fraction=0.5` must cap concurrent participation in async
    runs, not silently revert to full participation."""
    eng = blobs_engine(fresh_port, client_fraction=0.5, scheduler="fedasync")
    eng.scheduler.bind(eng)
    assert eng.scheduler.concurrency == 2  # half of 4 trainers
    eng.shutdown()
    eng2 = blobs_engine(
        fresh_port + 1, client_fraction=0.5, scheduler={"name": "fedasync", "concurrency": 4}
    )
    eng2.scheduler.bind(eng2)
    assert eng2.scheduler.concurrency == 4  # explicit scheduler setting wins
    eng2.shutdown()


def test_scheduler_inherits_engine_selection(fresh_port):
    """`selection=power_of_choice` must govern async runs too unless the
    scheduler explicitly overrides it."""
    eng = blobs_engine(fresh_port, selection="power_of_choice", scheduler="fedasync")
    eng.scheduler.bind(eng)
    assert eng.scheduler.selector is eng.selector
    eng.shutdown()
    eng2 = blobs_engine(
        fresh_port + 1,
        selection="power_of_choice",
        scheduler={"name": "fedasync", "selection": "round_robin"},
    )
    eng2.scheduler.bind(eng2)
    assert eng2.scheduler.selector is not eng2.selector
    assert eng2.scheduler.selector.name == "round_robin"
    eng2.shutdown()


# ---------------------------------------------------------------- plumbing
def test_engine_accepts_scheduler_instance_and_name(fresh_port):
    eng = blobs_engine(fresh_port, scheduler="fedasync")
    assert isinstance(eng.scheduler, FedAsyncScheduler)
    eng.shutdown()
    eng2 = blobs_engine(fresh_port + 1, scheduler=SemiSyncScheduler(deadline=2.0))
    assert isinstance(eng2.scheduler, SemiSyncScheduler)
    eng2.shutdown()
    with pytest.raises(ValueError):
        blobs_engine(fresh_port + 2, scheduler={"buffer_size": 3})  # no name
    assert isinstance(build_scheduler("sync"), SyncScheduler)


def test_scheduler_rejects_gossip_topologies(fresh_port):
    eng = Engine.from_spec(ExperimentSpec(
        topology="ring",
        topology_kwargs={"num_clients": 3,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 96, "test_size": 32}),
        train=TrainSpec(model="mlp", global_rounds=1),
    ))
    with pytest.raises(ValueError, match="server-pattern"):
        eng.run_async(total_updates=3, scheduler="fedasync")
    eng.shutdown()


def test_run_async_continues_across_calls_and_drains(fresh_port):
    """A second run_async continues the federation (no silent no-op), and
    every run ends with no training futures left in flight."""
    eng = blobs_engine(fresh_port, scheduler={"name": "fedasync", "heterogeneity": LOGNORMAL})
    m1 = eng.run_async(total_updates=8)
    assert m1.total_applied() == 8
    assert not eng.scheduler._in_flight and not eng.scheduler.queue
    m2 = eng.run_async(total_updates=4)
    eng.shutdown()
    assert m2.total_applied() == 12
    assert eng.scheduler.applied == 12
    assert not eng.scheduler._in_flight


def test_eval_cadence_counts_updates_not_aggregations(fresh_port):
    """FedAsync emits one record per update; with engine eval_every=1 and 4
    clients it must evaluate every ~4 updates, not after every single one."""
    eng = blobs_engine(fresh_port, scheduler={"name": "fedasync", "heterogeneity": LOGNORMAL})
    metrics = eng.run_async(total_updates=12)
    eng.shutdown()
    evaluated = [r for r in metrics.history if r.eval_accuracy is not None]
    assert len(metrics.history) == 12
    assert 2 <= len(evaluated) <= 4  # ~once per 4-update round-equivalent
    assert metrics.history[-1].eval_accuracy is not None  # final always evaluated


def test_run_async_is_deterministic_given_seed(fresh_port):
    def one(port):
        eng = blobs_engine(
            port,
            scheduler={"name": "fedbuff", "buffer_size": 3, "heterogeneity": LOGNORMAL},
        )
        m = eng.run_async(total_updates=9)
        span = m.sim_makespan()
        state = {k: v.copy() for k, v in eng.global_state().items()}
        eng.shutdown()
        return span, state

    span_a, state_a = one(fresh_port)
    span_b, state_b = one(fresh_port + 7)
    assert span_a == pytest.approx(span_b)
    for k in state_a:
        np.testing.assert_allclose(state_a[k], state_b[k], rtol=1e-6)
