"""``memory://`` is a refactor, not a fork: equivalence pins.

The memory broker must reproduce the pre-broker in-process pool — and the
dedicated one-node-per-client baseline — bit-identically: same record
stream (wall time aside), same final global state, across the scheduler
policies and with stateful compression following the logical client.
"""

import numpy as np
import pytest

from repro.experiment import Experiment, ExperimentSpec

_WALL_FIELDS = ("wall_seconds",)

HETERO = {
    "latency": "lognormal",
    "mean": 0.5,
    "sigma": 0.5,
    "client_spread": 0.5,
    "dropout": 0.1,
}

POLICIES = {
    "sync": {"name": "sync", "heterogeneity": dict(HETERO)},
    "fedasync": {"name": "fedasync", "heterogeneity": dict(HETERO)},
    "fedbuff": {"name": "fedbuff", "buffer_size": 3, "heterogeneity": dict(HETERO)},
}


def make_spec(policy, pool_size, *, broker="memory://", compressor=None):
    return ExperimentSpec(
        topology="centralized",
        num_clients=6,
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
        plugins={"compressor": compressor} if compressor else {},
        scheduler=POLICIES[policy],
        total_updates=12,
        seed=0,
    )


def records_of(result):
    out = []
    for rec in result.history:
        d = rec.as_dict()
        for f in _WALL_FIELDS:
            d.pop(f, None)
        out.append(d)
    return out


def run_spec(spec):
    result = Experiment(spec).run()
    return records_of(result), result.final_state


def assert_identical(run_a, run_b):
    records_a, state_a = run_a
    records_b, state_b = run_b
    assert records_a == records_b
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_memory_broker_matches_legacy_pool_and_dedicated(policy):
    explicit = run_spec(make_spec(policy, pool_size=2, broker="memory://"))
    # the default broker field takes the identical path
    default = run_spec(make_spec(policy, pool_size=2))
    dedicated = run_spec(make_spec(policy, pool_size=None))
    assert_identical(explicit, default)
    assert_identical(explicit, dedicated)


def test_memory_broker_with_stateful_compression():
    # error-feedback residuals must ride the client through the broker seam
    compressor = {
        "_target_": "repro.compression.error_feedback.ErrorFeedback",
        "inner": {"_target_": "repro.compression.topk.TopK", "ratio": 4.0},
    }
    experiment = Experiment(
        make_spec("fedasync", 2, broker="memory://", compressor=compressor)
    )
    result = experiment.run()
    pooled = records_of(result), result.final_state
    dedicated = run_spec(make_spec("fedasync", None, compressor=compressor))
    assert_identical(pooled, dedicated)
    pool = experiment.engine.pool
    assert pool.broker.scheme == "memory"
    assert pool.broker.snapshot_bytes() > 0  # the residuals it pins


def test_memory_broker_exposes_pool_surface():
    experiment = Experiment(make_spec("fedasync", 2))
    experiment.run()
    pool = experiment.engine.pool
    assert pool.pooled
    assert pool.pool_size == 2
    assert pool.client_ids() == list(range(6))
    assert pool.turns_run >= 12
    broker = pool.broker
    assert not broker.distributed
    assert broker.queue_depth() == 0  # drained at shutdown
    assert broker.idle_workers() == 2
    described = broker.describe()
    assert described["scheme"] == "memory" and described["workers"] == 2
