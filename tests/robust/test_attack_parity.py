"""Attacked-run parity across execution substrates.

The attacker set is a pure function of ``(seed, fraction)`` and every
corruption is deterministic, so byzantine runs must be *bit-identical*
whether the cohort runs on dedicated nodes, a bounded worker pool
(``pool_size < num_clients``), or worker processes behind a ``redis://``
broker.  Attacker identity rides the published spec — pool turns and broker
workers re-derive it rather than receiving mutable state — and the poisoned
loader / corrupted-update seams live inside the node, below every substrate.
"""

import numpy as np
import pytest

from repro.experiment import Experiment, ExperimentSpec
from repro.runtime.miniredis import MiniRedis

_WALL_FIELDS = ("wall_seconds",)

NUM_CLIENTS = 6
TOTAL_UPDATES = 12

HETERO = {"latency": "lognormal", "mean": 0.5, "sigma": 0.5, "client_spread": 0.5}

POLICIES = {
    "sync": {"name": "sync", "heterogeneity": dict(HETERO)},
    "fedasync": {"name": "fedasync", "heterogeneity": dict(HETERO)},
    "fedbuff": {"name": "fedbuff", "buffer_size": 3, "heterogeneity": dict(HETERO)},
}

ATTACK = {"kind": "sign_flip", "fraction": 0.34, "scale": 5.0}


def make_spec(policy, pool_size=None, broker="memory://", attack=ATTACK,
              aggregation=None, total_updates=TOTAL_UPDATES):
    return ExperimentSpec(
        topology="centralized",
        num_clients=NUM_CLIENTS,
        pool_size=pool_size,
        broker=broker,
        data={
            "dataset": "blobs",
            "kwargs": {"train_size": 384, "test_size": 96},
            "partition": "dirichlet",
            "partition_alpha": 0.5,
            "batch_size": 32,
        },
        train={
            "algorithm": "fedavg",
            "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1},
            "model": "mlp",
            "global_rounds": 2,
        },
        scheduler=POLICIES[policy],
        attack=attack,
        aggregation=aggregation,
        total_updates=total_updates,
        seed=0,
    )


def run_spec(spec):
    experiment = Experiment(spec)
    result = experiment.run()
    counters = experiment.engine.scheduler.robust_counters()
    return records_of(result), result.final_state, counters


def records_of(result):
    out = []
    for rec in result.history:
        d = rec.as_dict()
        for f in _WALL_FIELDS:
            d.pop(f, None)
        out.append(d)
    return out


def assert_identical(run_a, run_b):
    records_a, state_a, counters_a = run_a
    records_b, state_b, counters_b = run_b
    assert records_a == records_b
    assert counters_a == counters_b
    assert counters_a["attacked"] > 0  # the parity claim is vacuous otherwise
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


# --------------------------------------------------------------------------
# bounded pool == dedicated nodes, attacked
# --------------------------------------------------------------------------
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_attacked_pooled_matches_dedicated(policy):
    pooled = run_spec(make_spec(policy, pool_size=2))
    dedicated = run_spec(make_spec(policy, pool_size=None))
    assert_identical(pooled, dedicated)


def test_attacked_robust_pooled_matches_dedicated():
    # attack and defense together: trimming must reject the same arrivals
    # regardless of which worker slot carried the byzantine client
    aggregation = {"robust": "trimmed_mean", "kwargs": {"trim_ratio": 0.2}}
    pooled = run_spec(make_spec("sync", pool_size=2, aggregation=aggregation))
    dedicated = run_spec(make_spec("sync", pool_size=None, aggregation=aggregation))
    assert_identical(pooled, dedicated)
    assert pooled[2]["rejected"] > 0


def test_attacked_backdoor_pooled_matches_dedicated():
    # the backdoor poisons the *data stream*; the poisoned loader must follow
    # the logical client between pool turns, not stick to a worker
    attack = {
        "kind": "backdoor",
        "fraction": 0.34,
        "target_label": 0,
        "trigger_value": 3.0,
        "trigger_frac": 0.25,
        "poison_frac": 0.5,
    }
    pooled = run_spec(make_spec("fedasync", pool_size=2, attack=attack))
    dedicated = run_spec(make_spec("fedasync", pool_size=None, attack=attack))
    assert_identical(pooled, dedicated)


# --------------------------------------------------------------------------
# redis worker processes == memory broker, attacked
# --------------------------------------------------------------------------
def test_attacked_worker_processes_match_memory_broker():
    memory = run_spec(make_spec("fedasync", pool_size=2))
    with MiniRedis() as server:
        redis_run = run_spec(
            make_spec("fedasync", broker=f"{server.url}?workers=2&lease=30")
        )
    assert_identical(redis_run, memory)


def test_attacked_robust_worker_processes_match_memory_broker():
    aggregation = {"robust": "median"}
    memory = run_spec(make_spec("fedbuff", pool_size=2, aggregation=aggregation))
    with MiniRedis() as server:
        redis_run = run_spec(
            make_spec(
                "fedbuff",
                broker=f"{server.url}?workers=2&lease=30",
                aggregation=aggregation,
            )
        )
    assert_identical(redis_run, memory)
