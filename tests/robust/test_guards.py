"""Loud-failure guarantees around the robustness configuration surface.

A misconfigured defense must never be silently ignored: bad spec blocks
fail at validation, incompatible engine wiring fails at construction or
bind with a message that names the offender, and a robust rule on the
aggregator-less gossip policy is honored as robust *mixing* rather than
dropped on the floor.
"""

import numpy as np
import pytest

from repro.engine import Engine
from repro.experiment.spec import (
    AggregationSpec,
    AttackSpec,
    DataSpec,
    ExperimentSpec,
    MTDSpec,
    SpecError,
    TrainSpec,
)
from repro.scheduler import build_scheduler


def make_spec(port, *, topology="centralized", clients=3, algorithm="fedavg", **overrides):
    overrides.setdefault("scheduler", {"name": "sync"})
    return ExperimentSpec(
        topology=topology,
        topology_kwargs={
            "num_clients": clients,
            "inner_comm": {"backend": "torchdist", "master_port": port},
        },
        data=DataSpec(dataset="blobs", kwargs={"train_size": 96, "test_size": 48}),
        train=TrainSpec(algorithm=algorithm, algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
                        model="mlp", global_rounds=1),
        **overrides,
    )


# --------------------------------------------------------------------------
# Scheduler.bind names the offending node and topology pattern
# --------------------------------------------------------------------------
def test_bind_server_idx_at_non_aggregating_node_names_the_offender(fresh_port):
    eng = Engine.from_spec(make_spec(fresh_port))
    try:
        with pytest.raises(
            ValueError,
            match=r"node 1 \('client_0'\).*role 'trainer' does not aggregate "
                  r"on this 'server'-pattern topology",
        ):
            build_scheduler("sync").bind(eng, clients=[1, 2], server_idx=1)
    finally:
        eng.shutdown()


def test_bind_server_idx_out_of_range_reports_engine_shape(fresh_port):
    eng = Engine.from_spec(make_spec(fresh_port))
    try:
        with pytest.raises(
            ValueError,
            match=r"server_idx 99 is out of range.*4 nodes on a 'server'-pattern",
        ):
            build_scheduler("sync").bind(eng, clients=[1, 2], server_idx=99)
    finally:
        eng.shutdown()


# --------------------------------------------------------------------------
# engine-level wiring guards
# --------------------------------------------------------------------------
def test_mtd_requires_a_gossip_topology(fresh_port):
    spec = make_spec(fresh_port, mtd={"degree": 3})
    with pytest.raises(ValueError, match="moving-target defense.*'server'"):
        Engine.from_spec(spec)


def test_robust_aggregation_rejects_the_rounds_loop(fresh_port):
    # with no scheduler named the run is synchronous rounds, which bypass
    # the scheduler seam robust aggregation plugs into — and a pool at
    # least as large as the cohort (3 trainers) degenerates to dedicated
    # nodes, so it is the same loop and must hit the same guard
    for pool_size in (None, 3, 5):
        spec = make_spec(
            fresh_port, scheduler=None, pool_size=pool_size, aggregation={"robust": "median"}
        )
        assert spec.run_mode() == "rounds"
        with pytest.raises(ValueError, match="synchronous rounds loop"):
            Engine.from_spec(spec)
    # a pool below the cohort really pools: the default policy runs on the
    # scheduler runtime and the rule is applied, not ignored
    spec = make_spec(
        fresh_port, scheduler=None, pool_size=2, aggregation={"robust": "median"}
    )
    assert spec.run_mode() == "async"
    with Engine.from_spec(spec) as eng:
        eng.run_async(total_updates=3)
        assert eng.pool is not None and eng.scheduler.name == "fedasync"
        assert eng.scheduler.robust.name == "median"
        assert eng.scheduler.robust_counters()


def test_robust_rejects_delta_uploading_algorithm(fresh_port):
    spec = make_spec(
        fresh_port, algorithm="scaffold", aggregation={"robust": "median"}
    )
    eng = Engine.from_spec(spec)
    try:
        with pytest.raises(ValueError, match="raw model states.*'scaffold'"):
            eng.run_async(total_updates=3)
    finally:
        eng.shutdown()


def test_robust_refuses_to_shadow_a_custom_aggregate(fresh_port):
    # fedmom uploads full states but owns its merge (server momentum);
    # a robust rule silently replacing it would corrupt the algorithm
    spec = make_spec(
        fresh_port, algorithm="fedmom", aggregation={"robust": "median"}
    )
    eng = Engine.from_spec(spec)
    try:
        with pytest.raises(ValueError, match="would replace 'fedmom'"):
            eng.run_async(total_updates=3)
    finally:
        eng.shutdown()


def test_robust_refuses_to_shadow_a_custom_aggregate_at_a_sync_outer_tier(fresh_port):
    # the hierarchical root's barrier merge goes through aggregate() too
    spec = ExperimentSpec(
        topology="hierarchical",
        topology_kwargs={
            "num_sites": 2,
            "clients_per_site": 2,
            "inner_comm": {"backend": "torchdist", "master_port": fresh_port},
            "outer_comm": {"backend": "grpc", "master_port": fresh_port + 1000,
                           "transport": "inproc"},
        },
        data=DataSpec(dataset="blobs", kwargs={"train_size": 96, "test_size": 48}),
        train=TrainSpec(algorithm="fedmom", algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
                        model="mlp", global_rounds=1),
        scheduler={"name": "hier_async", "inner": "fedasync", "outer": "sync"},
        aggregation={"robust": "median"},
    )
    eng = Engine.from_spec(spec)
    try:
        with pytest.raises(ValueError, match="would replace 'fedmom'"):
            eng.run_async(total_updates=4)
    finally:
        eng.shutdown()


# --------------------------------------------------------------------------
# gossip honors robust as mixing — never silently ignores it
# --------------------------------------------------------------------------
def test_gossip_robust_is_honored_as_robust_mixing(fresh_port):
    def once(port, aggregation):
        spec = make_spec(
            port,
            topology="ring",
            clients=4,
            scheduler={"name": "gossip_async"},
            aggregation=aggregation,
        )
        eng = Engine.from_spec(spec)
        sched = eng.scheduler
        eng.run_async(total_updates=8)
        state = {k: np.copy(v) for k, v in eng.global_state().items()}
        eng.shutdown()
        return sched, state

    plain_sched, plain_state = once(fresh_port, None)
    robust_sched, robust_state = once(fresh_port + 1, {"robust": "median"})
    assert plain_sched.robust is None
    assert robust_sched.robust is not None
    assert robust_sched.robust.name == "median"
    # the rule really rewired the mixing arithmetic: with >2 states per
    # exchange a median is not a weighted mean, so trajectories diverge
    assert any(
        plain_state[k].tobytes() != robust_state[k].tobytes()
        for k in plain_state
        if np.issubdtype(plain_state[k].dtype, np.floating)
    )


# --------------------------------------------------------------------------
# spec-block validation
# --------------------------------------------------------------------------
def test_attack_spec_validation():
    with pytest.raises(SpecError, match="attack.kind"):
        AttackSpec(kind="gradient_eating")
    with pytest.raises(SpecError, match="fraction"):
        AttackSpec(fraction=1.5)
    with pytest.raises(SpecError, match="scale"):
        AttackSpec(scale=0.0)
    with pytest.raises(SpecError, match="target_label"):
        AttackSpec(target_label=-1)
    with pytest.raises(SpecError, match="trigger_frac"):
        AttackSpec(trigger_frac=0.0)
    with pytest.raises(SpecError, match="poison_frac"):
        AttackSpec(poison_frac=1.5)


def test_aggregation_spec_validation():
    with pytest.raises(SpecError, match="aggregation.robust"):
        AggregationSpec(robust="average_harder")
    # constructor kwargs are validated eagerly at resolution time
    from repro.experiment.spec import resolve_robust_fn

    spec = ExperimentSpec(
        aggregation={"robust": "trimmed_mean", "kwargs": {"trim_ratio": 0.9}}
    )
    with pytest.raises(ValueError, match="trim_ratio"):
        resolve_robust_fn(spec)


def test_mtd_spec_validation():
    with pytest.raises(SpecError, match="mtd.degree"):
        MTDSpec(degree=1)
    with pytest.raises(SpecError, match="reshuffle_every"):
        MTDSpec(reshuffle_every=0)


def test_spec_blocks_coerce_from_plain_dicts():
    spec = ExperimentSpec(
        attack={"kind": "label_flip", "fraction": 0.25},
        aggregation={"robust": "krum", "kwargs": {"f": 1}},
        mtd={"degree": 3, "reshuffle_every": 5},
    )
    assert isinstance(spec.attack, AttackSpec)
    assert spec.attack.kind == "label_flip" and spec.attack.fraction == 0.25
    assert isinstance(spec.aggregation, AggregationSpec)
    assert spec.aggregation.robust == "krum" and spec.aggregation.kwargs == {"f": 1}
    assert isinstance(spec.mtd, MTDSpec)
    assert spec.mtd.degree == 3 and spec.mtd.reshuffle_every == 5
    # absent blocks stay absent (the fraction-0 byte-identity contract
    # depends on None meaning "no machinery at all")
    bare = ExperimentSpec()
    assert bare.attack is None and bare.mtd is None
