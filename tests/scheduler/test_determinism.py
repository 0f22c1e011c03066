"""Determinism regression suite: every execution policy, run twice with the
same config and seed, must produce identical round metrics (modulo wall-clock
timings, which measure the host) and a bit-identical final global state.

This is the property the whole virtual-time design exists to provide —
heterogeneity draws are keyed by (seed, client, dispatch#), events order by
(arrival, seq), and aggregation arithmetic is replayed in queue order — so
any nondeterminism that creeps into a policy is a bug, not noise."""

import numpy as np
import pytest

from repro.engine import Engine
from repro.experiment import DataSpec, ExperimentSpec, TrainSpec

#: fields that measure the host machine, not the federation
_WALL_FIELDS = ("wall_seconds",)

LOGNORMAL = {"latency": "lognormal", "mean": 0.5, "sigma": 0.5, "client_spread": 0.5}

FLAT_POLICIES = {
    "sync": {"name": "sync", "heterogeneity": dict(LOGNORMAL)},
    "semi_sync": {"name": "semi_sync", "deadline": 1.0, "heterogeneity": dict(LOGNORMAL)},
    "fedasync": {"name": "fedasync", "heterogeneity": dict(LOGNORMAL)},
    "fedbuff": {"name": "fedbuff", "buffer_size": 3, "heterogeneity": dict(LOGNORMAL)},
}

HIER_SPEC = {
    "name": "hier_async",
    "inner": "sync",
    "outer": "fedasync",
    "heterogeneity": {"latency": "lognormal", "mean": 0.1, "sigma": 0.5},
    "outer_heterogeneity": {"latency": "lognormal", "mean": 1.0, "sigma": 0.8, "client_spread": 0.5},
}

GOSSIP_SPEC = {
    "name": "gossip_async",
    "neighbor_selection": "random_k",
    "neighbor_k": 1,
    "heterogeneity": dict(LOGNORMAL),
    "edge_heterogeneity": {"latency": "lognormal", "mean": 0.3, "sigma": 0.5, "client_spread": 0.5},
}


def _records(metrics):
    out = []
    for rec in metrics.history:
        d = rec.as_dict()
        for f in _WALL_FIELDS:
            d.pop(f, None)
        d["per_edge"] = dict(rec.per_edge)
        d["per_node"] = {k: dict(v) for k, v in rec.per_node.items()}
        out.append(d)
    return out


def _engine(topology, topology_kwargs, scheduler, rounds=3, **spec_kwargs):
    return Engine.from_spec(ExperimentSpec(
        topology=topology,
        topology_kwargs=topology_kwargs,
        data=DataSpec(dataset="blobs", kwargs={"train_size": 256, "test_size": 64}),
        train=TrainSpec(algorithm="fedavg", algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
                        model="mlp", global_rounds=rounds),
        scheduler=scheduler,
        **spec_kwargs,
    ))


def _run(topology, scheduler, port, topology_kwargs, total_updates):
    eng = _engine(topology, topology_kwargs, scheduler)
    metrics = eng.run_async(total_updates=total_updates)
    state = {k: np.copy(v) for k, v in eng.global_state().items()}
    eng.shutdown()
    return _records(metrics), state


def _assert_identical(run_a, run_b):
    recs_a, state_a = run_a
    recs_b, state_b = run_b
    assert recs_a == recs_b  # exact equality, not approx: replays must match
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        assert state_a[key].dtype == state_b[key].dtype
        assert state_a[key].tobytes() == state_b[key].tobytes(), f"state {key!r} differs"


@pytest.mark.parametrize("policy", sorted(FLAT_POLICIES))
def test_flat_policies_are_bitwise_deterministic(fresh_port, policy):
    spec = FLAT_POLICIES[policy]

    def once(port):
        return _run(
            "centralized",
            dict(spec),
            port,
            {"num_clients": 4, "inner_comm": {"backend": "torchdist", "master_port": port}},
            total_updates=12,
        )

    _assert_identical(once(fresh_port), once(fresh_port + 1))


def test_hier_async_is_bitwise_deterministic(fresh_port):
    def once(port):
        return _run(
            "hierarchical",
            dict(HIER_SPEC),
            port,
            {
                "num_sites": 2,
                "clients_per_site": 2,
                "inner_comm": {"backend": "torchdist", "master_port": port},
                "outer_comm": {"backend": "grpc", "master_port": port + 1000, "transport": "inproc"},
            },
            total_updates=8,
        )

    _assert_identical(once(fresh_port), once(fresh_port + 7))


def test_gossip_async_is_bitwise_deterministic(fresh_port):
    def once(port):
        return _run(
            "ring",
            dict(GOSSIP_SPEC),
            port,
            {"num_clients": 4, "inner_comm": {"backend": "torchdist", "master_port": port}},
            total_updates=12,
        )

    _assert_identical(once(fresh_port), once(fresh_port + 3))


def test_different_seeds_actually_diverge(fresh_port):
    """The suite would be vacuous if runs were identical regardless of seed."""

    def once(port, seed):
        eng = _engine(
            "centralized",
            {"num_clients": 4, "inner_comm": {"backend": "torchdist", "master_port": port}},
            {"name": "fedasync", "heterogeneity": dict(LOGNORMAL)},
            rounds=2,
            seed=seed,
        )
        metrics = eng.run_async(total_updates=8)
        state = {k: np.copy(v) for k, v in eng.global_state().items()}
        eng.shutdown()
        return metrics, state

    _, state_a = once(fresh_port, seed=0)
    _, state_b = once(fresh_port + 1, seed=1)
    assert any(
        state_a[k].tobytes() != state_b[k].tobytes()
        for k in state_a
        if np.issubdtype(state_a[k].dtype, np.floating)
    )


# ----------------------------------------------------------------------------
# telemetry must observe without perturbing: a traced run is bit-identical
# to an untraced one under every policy (the no-op tracer default and the
# recording tracer share every code path that touches RNG or event order).
# ----------------------------------------------------------------------------
_TOPO_FOR = {
    "sync": "centralized",
    "semi_sync": "centralized",
    "fedasync": "centralized",
    "fedbuff": "centralized",
    "hier_async": "hierarchical",
    "gossip_async": "ring",
}

_SCHED_FOR = {**FLAT_POLICIES, "hier_async": HIER_SPEC, "gossip_async": GOSSIP_SPEC}


def _topology_kwargs(policy, port):
    if policy == "hier_async":
        return {
            "num_sites": 2,
            "clients_per_site": 2,
            "inner_comm": {"backend": "torchdist", "master_port": port},
            "outer_comm": {"backend": "grpc", "master_port": port + 1000,
                           "transport": "inproc"},
        }
    return {"num_clients": 4,
            "inner_comm": {"backend": "torchdist", "master_port": port}}


def _run_policy(policy, port, telemetry=None, **spec_kwargs):
    eng = _engine(
        _TOPO_FOR[policy], _topology_kwargs(policy, port), dict(_SCHED_FOR[policy]), **spec_kwargs
    )
    if telemetry is not None:
        eng.metrics.callbacks.append(telemetry)
    metrics = eng.run_async(total_updates=8 if policy == "hier_async" else 12)
    state = {k: np.copy(v) for k, v in eng.global_state().items()}
    eng.shutdown()
    return _records(metrics), state


@pytest.mark.parametrize("policy", sorted(_SCHED_FOR))
def test_traced_run_is_bit_identical_to_untraced(fresh_port, policy):
    from repro.telemetry import RunRegistry, Telemetry

    untraced = _run_policy(policy, fresh_port)
    tel = Telemetry(runs=RunRegistry())
    traced = _run_policy(policy, fresh_port + 11, telemetry=tel)
    assert len(tel.tracer) > 0  # the traced arm really recorded spans
    _assert_identical(untraced, traced)


# ----------------------------------------------------------------------------
# byzantine scenarios replay bit-identically too: attacker assignment, the
# deterministic corruptions, and the robust merge arithmetic all key off
# (seed, client, dispatch#) streams, never wall-clock or arrival races.
# ----------------------------------------------------------------------------
_ATTACKED = {
    "attack": {"kind": "sign_flip", "fraction": 0.3, "scale": 5.0},
    "aggregation": {"robust": "median"},
}


@pytest.mark.parametrize("policy", sorted(_SCHED_FOR))
def test_attacked_robust_runs_are_bitwise_deterministic(fresh_port, policy):
    run_a = _run_policy(policy, fresh_port, **_ATTACKED)
    run_b = _run_policy(policy, fresh_port + 13, **_ATTACKED)
    _assert_identical(run_a, run_b)


def test_attacked_mtd_gossip_is_bitwise_deterministic(fresh_port):
    # the moving-target overlay re-samples from its own seeded stream;
    # re-running the same config must replay the identical epoch sequence
    kwargs = {**_ATTACKED, "mtd": {"degree": 3, "reshuffle_every": 4}}
    run_a = _run_policy("gossip_async", fresh_port, **kwargs)
    run_b = _run_policy("gossip_async", fresh_port + 17, **kwargs)
    _assert_identical(run_a, run_b)
