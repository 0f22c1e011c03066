"""Hierarchical async federation: per-tier policy combinations, site-head
delta routing through the outer compressor/DP codec, two-tier round
accounting, and the async-outer vs. all-sync makespan ordering."""

import numpy as np
import pytest

from repro.engine import Engine
from repro.experiment import DataSpec, ExperimentSpec, PluginSpec, TrainSpec
from repro.scheduler import HierarchicalScheduler, build_scheduler

INNER_HETERO = {"latency": "lognormal", "mean": 0.1, "sigma": 0.5}
OUTER_HETERO = {"latency": "lognormal", "mean": 1.0, "sigma": 0.8, "client_spread": 0.5}


def hier_engine(
    fresh_port,
    *,
    scheduler=None,
    algorithm="fedavg",
    sites=None,
    train_size=512,
    rounds=3,
    eval_every=1,
    **plugins,
):
    return Engine.from_spec(ExperimentSpec(
        topology="hierarchical",
        topology_kwargs={
            **(sites or {"num_sites": 2, "clients_per_site": 2}),
            "inner_comm": {"backend": "torchdist", "master_port": fresh_port},
            "outer_comm": {
                "backend": "grpc",
                "master_port": fresh_port + 1000,
                "transport": "inproc",
            },
        },
        data=DataSpec(dataset="blobs",
                      kwargs={"train_size": train_size, "test_size": train_size // 4}),
        train=TrainSpec(algorithm=algorithm, algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
                        model="mlp", global_rounds=rounds, eval_every=eval_every),
        plugins=PluginSpec(**plugins),
        scheduler=scheduler,
    ))


def flat_engine(fresh_port, clients, train_size):
    return Engine.from_spec(ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": clients,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": train_size, "test_size": 32}),
        train=TrainSpec(model="mlp", global_rounds=1),
    ))


def hier_spec(**kw):
    spec = {
        "name": "hier_async",
        "heterogeneity": dict(INNER_HETERO),
        "outer_heterogeneity": dict(OUTER_HETERO),
    }
    spec.update(kw)
    return spec


# ------------------------------------------------------------ tier combinations
@pytest.mark.parametrize(
    "inner,outer",
    [
        ("sync", "fedasync"),
        ("sync", "sync"),
        ("sync", "fedbuff"),
        ("semi_sync", "fedasync"),
        ("fedbuff", "fedasync"),
        ("fedasync", "fedbuff"),
    ],
)
def test_tier_combinations_complete_and_converge(fresh_port, inner, outer):
    eng = hier_engine(fresh_port, scheduler=hier_spec(inner=inner, outer=outer))
    metrics = eng.run_async(total_updates=24)
    state = eng.global_state()
    eng.shutdown()
    assert metrics.total_applied() >= 24
    assert all(np.isfinite(v).all() for v in state.values())
    assert metrics.final_accuracy() is not None
    assert metrics.final_accuracy() > 0.7


def test_default_scheduler_on_hierarchical_topology_is_hier_async(fresh_port):
    eng = hier_engine(fresh_port)
    metrics = eng.run_async(total_updates=8)
    eng.shutdown()
    assert isinstance(eng.scheduler, HierarchicalScheduler)
    assert metrics.total_applied() >= 8


def test_flat_scheduler_rejects_hierarchical_topology(fresh_port):
    eng = hier_engine(fresh_port)
    with pytest.raises(ValueError, match="hier_async"):
        eng.run_async(total_updates=4, scheduler="fedasync")
    eng.shutdown()


def test_hier_scheduler_rejects_flat_topology(fresh_port):
    eng = flat_engine(fresh_port, clients=2, train_size=96)
    with pytest.raises(ValueError, match="hierarchical-pattern"):
        eng.run_async(total_updates=2, scheduler="hier_async")
    eng.shutdown()


def test_invalid_tier_specs_rejected():
    with pytest.raises(ValueError, match="nest"):
        HierarchicalScheduler(inner="hier_async")
    with pytest.raises(ValueError, match="outer"):
        HierarchicalScheduler(outer="bogus")
    with pytest.raises(ValueError, match="updates_per_site_round"):
        HierarchicalScheduler(updates_per_site_round=0)


# ------------------------------------------------------------ makespan ordering
def test_async_outer_beats_all_sync_hierarchy_at_equal_updates(fresh_port):
    """The acceptance claim: same seed, same two latency models, same number
    of aggregated client updates — async outer merges strictly earlier than
    the all-sync hierarchy, which pays the slowest site every outer round."""
    results = {}
    for i, outer in enumerate(("sync", "fedasync")):
        eng = hier_engine(
            fresh_port + 100 * i,
            scheduler=hier_spec(inner="sync", outer=outer),
            eval_every=0,
        )
        metrics = eng.run_async(total_updates=16)
        eng.shutdown()
        results[outer] = (metrics.total_applied(), metrics.sim_makespan())
    assert results["fedasync"][0] == results["sync"][0] == 16
    assert results["fedasync"][1] < results["sync"][1]


# ------------------------------------------------------------ delta routing
def test_site_upload_routes_through_outer_compressor(fresh_port):
    """Site deltas must cross the outer link through the head's
    outer_compressor, delta-coded against the dispatched global state, and
    decode back to a full finite model state at the root."""
    from repro.compression import build_compressor

    eng = hier_engine(
        fresh_port,
        scheduler=hier_spec(inner="sync", outer="fedasync"),
        outer_compressor=lambda: build_compressor("topk", ratio=5),
    )
    eng.run_async(total_updates=8)
    sched = eng.scheduler
    head = eng.nodes[sched.sites[0].head]
    root = eng.nodes[0]
    # re-run the head-side encode directly against the current global state
    reference = root.global_state
    wire, meta = head.site_upload(reference, 128)
    state = eng.global_state()
    eng.shutdown()
    assert meta["compressed"] and meta["delta_coded"]
    assert any(k.startswith("__czip__.") for k in wire)
    decoded = root.decode_site_upload(wire, meta, reference)
    assert set(decoded) == set(head.global_state)
    assert all(np.isfinite(v).all() for v in decoded.values())
    assert all(np.isfinite(v).all() for v in state.values())


def test_site_upload_delta_needs_matching_reference(fresh_port):
    from repro.compression import build_compressor

    eng = hier_engine(
        fresh_port,
        scheduler=hier_spec(inner="sync", outer="fedasync"),
        outer_compressor=lambda: build_compressor("topk", ratio=5),
    )
    eng.setup_async()
    head = eng.nodes[1]
    head.adopt_global(eng.nodes[0].global_state)
    wire, meta = head.site_upload(eng.nodes[0].global_state, 64)
    with pytest.raises(ValueError, match="reference"):
        eng.nodes[0].decode_site_upload(wire, meta, None)
    eng.shutdown()


def test_trainer_dp_flows_through_inner_tier(fresh_port):
    """A DP plugin configured on trainers must privatize inner-tier uploads
    in hierarchical async runs exactly as in flat ones."""
    from repro.privacy import DifferentialPrivacy

    eng = hier_engine(
        fresh_port,
        scheduler=hier_spec(inner="sync", outer="fedasync"),
        dp=lambda: DifferentialPrivacy(epsilon=5.0, clip_norm=10.0),
    )
    eng.setup_async()
    sched = eng.scheduler
    sched.bind(eng)
    site = sched.sites[0]
    trainer = eng.nodes[site.trainers[0]]
    head = eng.nodes[site.head]
    assert head.dp is None  # engine wires DP onto trainers only
    payload = head.algorithm.server_payload(head.global_state or eng.nodes[0].global_state)
    res = trainer.local_update(payload, 0)
    eng.shutdown()
    assert "dp" in res["meta"] and res["meta"]["dp"]["epsilon"] == 5.0


def test_adopt_global_strips_payload_extras_and_rejects_trainers(fresh_port):
    eng = hier_engine(fresh_port, algorithm="scaffold")
    eng.setup_async()
    root, head, trainer = eng.nodes[0], eng.nodes[1], eng.nodes[2]
    payload = root.algorithm.server_payload(root.global_state)
    head.adopt_global(payload)
    assert set(head.global_state) == set(root.global_state)  # extras stripped
    with pytest.raises(AssertionError):
        trainer.adopt_global(payload)
    eng.shutdown()


# ------------------------------------------------------------ round accounting
def test_two_tier_round_accounting(fresh_port):
    """Global records carry tier='global', per-site breakdowns, and applied
    counts that sum to the inner tiers' totals; each site keeps its own
    tier='site' history on a site-local virtual clock."""
    eng = hier_engine(fresh_port, scheduler=hier_spec(inner="sync", outer="fedasync"))
    metrics = eng.run_async(total_updates=16)
    sched = eng.scheduler
    eng.shutdown()
    assert all(rec.tier == "global" for rec in metrics.history)
    assert all(rec.sites_merged >= 1 for rec in metrics.history)
    assert metrics.total_applied() == 16
    assert sum(s.merged_rounds for s in sched.sites) == sum(r.sites_merged for r in metrics.history)
    # per-site breakdown rides along on every outer record
    assert all(
        any(k.startswith("site") for k in rec.per_node) for rec in metrics.history
    )
    # inner tiers recorded at least as many client updates as were merged
    # globally (uploads in flight at the end are discarded, never counted)
    site_applied = sum(c.total_applied() for c in sched.site_metrics)
    assert site_applied >= metrics.total_applied()
    for collector in sched.site_metrics:
        assert all(rec.tier == "site" for rec in collector.history)
    # outer clock advances monotonically across global records
    times = [rec.sim_time for rec in metrics.history]
    assert times == sorted(times)


def test_fedbuff_outer_flushes_every_k_sites(fresh_port):
    eng = hier_engine(
        fresh_port,
        scheduler=hier_spec(inner="sync", outer="fedbuff", outer_buffer_size=2),
    )
    metrics = eng.run_async(total_updates=16)
    sched = eng.scheduler
    eng.shutdown()
    assert sched.outer_flushes >= 2
    assert all(rec.sites_merged == 2 for rec in metrics.history)


def test_sync_outer_has_zero_staleness_and_barriers(fresh_port):
    eng = hier_engine(fresh_port, scheduler=hier_spec(inner="sync", outer="sync"))
    metrics = eng.run_async(total_updates=16)
    eng.shutdown()
    assert all(rec.staleness_mean == 0.0 for rec in metrics.history)
    assert all(rec.sites_merged == 2 for rec in metrics.history)


def test_async_outer_observes_staleness_with_uneven_sites(fresh_port):
    """With a persistently slow site on the outer link, the slow site's
    uploads merge against newer global versions: positive staleness."""
    eng = hier_engine(
        fresh_port,
        scheduler=hier_spec(
            inner="sync",
            outer="fedasync",
            outer_heterogeneity={
                "latency": "lognormal",
                "mean": 1.0,
                "sigma": 0.5,
                "client_spread": 1.5,
            },
        ),
    )
    metrics = eng.run_async(total_updates=24)
    eng.shutdown()
    assert any(rec.staleness_mean > 0 for rec in metrics.history)


# ------------------------------------------------------------ faults/plumbing
def test_outer_link_dropout_does_not_stall_federation(fresh_port):
    eng = hier_engine(
        fresh_port,
        scheduler=hier_spec(
            inner="sync",
            outer="fedasync",
            outer_heterogeneity={"latency": "constant", "mean": 1.0, "dropout": 0.3},
        ),
    )
    metrics = eng.run_async(total_updates=16)
    sched = eng.scheduler
    state = eng.global_state()
    eng.shutdown()
    assert metrics.total_applied() >= 16
    assert sched.dropped > 0  # the fault model actually fired
    assert all(np.isfinite(v).all() for v in state.values())


def test_run_async_continues_across_calls(fresh_port):
    eng = hier_engine(fresh_port, scheduler=hier_spec(inner="sync", outer="fedasync"))
    m1 = eng.run_async(total_updates=8)
    applied_1 = m1.total_applied()
    assert applied_1 >= 8
    assert not eng.scheduler.queue  # uploads drained between runs
    m2 = eng.run_async(total_updates=8)
    eng.shutdown()
    assert m2.total_applied() >= applied_1 + 8
    assert eng.scheduler.applied == m2.total_applied()


def test_hier_run_is_deterministic_given_seed(fresh_port):
    def one(port):
        eng = hier_engine(port, scheduler=hier_spec(inner="semi_sync", outer="fedasync"))
        m = eng.run_async(total_updates=12)
        span = m.sim_makespan()
        state = {k: v.copy() for k, v in eng.global_state().items()}
        eng.shutdown()
        return span, state

    span_a, state_a = one(fresh_port)
    span_b, state_b = one(fresh_port + 7)
    assert span_a == pytest.approx(span_b)
    for k in state_a:
        np.testing.assert_allclose(state_a[k], state_b[k], rtol=1e-6)


def test_uneven_site_sizes_and_three_sites(fresh_port):
    eng = hier_engine(
        fresh_port,
        sites={"site_sizes": [1, 2, 3]},
        train_size=384,
        rounds=2,
        scheduler=hier_spec(inner="sync", outer="fedasync"),
    )
    sched = eng.scheduler
    metrics = eng.run_async(total_updates=12)
    eng.shutdown()
    assert [len(s.trainers) for s in sched.sites] == [1, 2, 3]
    assert metrics.total_applied() >= 12


def test_site_groups_exposed_by_topology():
    from repro.topology import build_topology

    topo = build_topology("hierarchical", site_sizes=[2, 3])
    groups = topo.site_groups()
    assert [g.head for g in groups] == [1, 4]
    assert groups[0].trainers == [2, 3]
    assert groups[1].trainers == [5, 6, 7]
    # flat topologies expose no sites
    assert build_topology("centralized", num_clients=2).site_groups() == []


def test_site_tier_drain_does_not_advance_clock(fresh_port):
    """Dispatches cancelled at a site-round boundary must not delay the
    site's clock (their updates never merge, so their latency gates
    nothing): after a scoped chunk, ``now`` equals the last merge time,
    not the arrival of the slowest discarded straggler."""
    from repro.engine.metrics import MetricsCollector
    from repro.scheduler import build_scheduler as build

    eng = flat_engine(fresh_port, clients=4, train_size=128)
    eng.setup_async()  # the coordinator's job, done before any site chunk
    sched = build(
        "fedasync",
        eval_every=0,
        heterogeneity={"latency": "lognormal", "mean": 1.0, "sigma": 1.0},
    )
    sched.bind(eng, clients=[1, 2, 3, 4], server_idx=0, metrics=MetricsCollector())
    assert sched.tier == "site"
    sched.run(2)  # merges 2 of 4 in-flight dispatches, discards the rest
    eng.shutdown()
    assert sched.applied == 2
    assert sched.now == sched.metrics.history[-1].sim_time


def test_build_scheduler_registry_aliases():
    assert isinstance(build_scheduler("hier_async"), HierarchicalScheduler)
    assert isinstance(build_scheduler("hierarchical"), HierarchicalScheduler)
