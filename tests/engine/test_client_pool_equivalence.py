"""Pooled-vs-dedicated equivalence: the client pool's core contract.

A cohort simulated on a bounded worker pool (``pool_size < num_clients``)
must be *bit-identical* to one with a dedicated node per client — same
record stream, same final global state — for every algorithm x policy combo
that the scheduler runtime supports.  Per-client state swapping, logical-id
random streams, and per-client FIFO submission are exactly the machinery
that makes this hold; any leak of one client's state into another, or any
draw keyed on a worker slot instead of the client, breaks these tests.

Also pins the per-client RNG derivation (satellite: hash of
``(run_seed, client_id)``, never a node index or worker slot) with a
regression showing metrics are invariant to ``pool_size`` and to the order
in which the pool happens to schedule turns.
"""

import numpy as np
import pytest

from repro.experiment import Experiment, ExperimentSpec
from repro.utils.seeding import DATA_STREAM, FAULT_STREAM, client_rng

#: fields that measure the host machine, not the federation
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

NUM_CLIENTS = 6
TOTAL_UPDATES = 12


def make_spec(
    algorithm: str,
    policy: str,
    pool_size,
    *,
    selection: str = "random",
    compressor=None,
    partition: str = "dirichlet",
    seed: int = 0,
    model_kwargs=None,
    algo_kwargs=None,
    model: str = "mlp",
    dataset: str = "blobs",
    dataset_kwargs=None,
):
    return ExperimentSpec(
        topology="centralized",
        num_clients=NUM_CLIENTS,
        pool_size=pool_size,
        data={
            "dataset": dataset,
            "kwargs": {"train_size": 384, "test_size": 96, **(dataset_kwargs or {})},
            "partition": partition,
            "partition_alpha": 0.5,
            "batch_size": 32,
        },
        train={
            "algorithm": algorithm,
            "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1, **(algo_kwargs or {})},
            "model": model,
            "model_kwargs": dict(model_kwargs or {}),
            "global_rounds": 2,
        },
        plugins={"compressor": compressor} if compressor else {},
        faults={"selection": selection},
        scheduler=POLICIES[policy],
        total_updates=TOTAL_UPDATES,
        seed=seed,
    )


def run_spec(spec):
    result = Experiment(spec).run()
    return records_of(result), result.final_state


def records_of(result):
    out = []
    for rec in result.history:
        d = rec.as_dict()
        for f in _WALL_FIELDS:
            d.pop(f, None)
        out.append(d)
    return out


def assert_identical(run_a, run_b):
    records_a, state_a = run_a
    records_b, state_b = run_b
    assert records_a == records_b
    assert set(state_a) == set(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


# --------------------------------------------------------------------------
# the algorithm x policy matrix
# --------------------------------------------------------------------------
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize(
    "algorithm",
    [
        "fedavg",
        pytest.param("scaffold", id="scaffold"),
        pytest.param("fedper", id="fedper"),
    ],
)
def test_pooled_matches_dedicated(algorithm, policy):
    if algorithm == "scaffold" and policy in ("fedasync", "fedbuff"):
        # these policies interpolate/diff raw model states and reject
        # delta-uploading algorithms — identically in both execution modes
        for pool_size in (2, None):
            with pytest.raises(ValueError, match="full-state-uploading"):
                Experiment(make_spec(algorithm, policy, pool_size)).run()
        return
    pooled = run_spec(make_spec(algorithm, policy, pool_size=2))
    dedicated = run_spec(make_spec(algorithm, policy, pool_size=None))
    assert_identical(pooled, dedicated)


@pytest.mark.parametrize("policy", ["sync", "fedasync"])
def test_pooled_matches_dedicated_conv_model(policy):
    # every other cell trains an MLP; this one runs conv2d + batch_norm
    # (strided, 1x1 and folded layers of a narrow resnet18 on 8x8 images),
    # so a kernel buffer that outlived a turn or was shared between the two
    # pool threads shows up as pooled != dedicated, not as a worse loss
    def conv_spec(pool_size):
        return make_spec(
            "fedavg", policy, pool_size,
            model="resnet18", model_kwargs={"base_width": 4},
            dataset="cifar10", dataset_kwargs={"image_size": 8, "train_size": 192, "test_size": 48},
        )

    assert_identical(run_spec(conv_spec(2)), run_spec(conv_spec(None)))


def test_pooled_matches_dedicated_with_stateful_compression():
    # error feedback keeps per-client residuals; they must follow the
    # logical client between pool turns, not stick to a worker
    compressor = {
        "_target_": "repro.compression.error_feedback.ErrorFeedback",
        "inner": {"_target_": "repro.compression.topk.TopK", "ratio": 4.0},
    }
    experiment = Experiment(make_spec("fedavg", "fedasync", 2, compressor=compressor))
    result = experiment.run()
    pooled = records_of(result), result.final_state
    dedicated = run_spec(make_spec("fedavg", "fedasync", None, compressor=compressor))
    assert_identical(pooled, dedicated)
    # the store's size diagnostic must see the residuals it pins
    assert experiment.engine.pool.store.nbytes() > 0


def test_pooled_matches_dedicated_feddyn():
    # FedDyn's per-client dual must be *replaced*, never mutated in place:
    # stored snapshots hold references to the previous dict
    pooled = run_spec(make_spec("feddyn", "sync", 2, algo_kwargs={"alpha": 0.1}))
    dedicated = run_spec(make_spec("feddyn", "sync", None, algo_kwargs={"alpha": 0.1}))
    assert_identical(pooled, dedicated)


def test_oversized_pool_degenerates_to_dedicated():
    # pool_size >= the trainer count must behave exactly like pool_size=None
    # — including mode="auto" with no scheduler falling back to synchronous
    # rounds (and so staying safe for delta-uploading algorithms)
    def rounds_spec(pool_size):
        return ExperimentSpec(
            topology="centralized",
            num_clients=3,
            pool_size=pool_size,
            data={"dataset": "blobs", "kwargs": {"train_size": 96, "test_size": 48},
                  "partition": "iid", "batch_size": 32},
            train={"algorithm": "scaffold",
                   "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1},
                   "model": "mlp", "global_rounds": 2},
            seed=0,
        )

    oversized = Experiment(rounds_spec(pool_size=8))
    got = oversized.run()
    assert oversized.engine.pool is None
    assert got.mode == "rounds"
    want = Experiment(rounds_spec(pool_size=None)).run()
    assert_identical(
        (records_of(got), got.final_state), (records_of(want), want.final_state)
    )


def test_pooled_matches_dedicated_personalized_eval():
    # FedBN evaluates each client's own model: the pool must swap whole
    # per-client models through the workers, including at evaluation time
    pooled = run_spec(
        make_spec("fedbn", "sync", 2, model_kwargs={"batch_norm": True})
    )
    dedicated = run_spec(
        make_spec("fedbn", "sync", None, model_kwargs={"batch_norm": True})
    )
    assert_identical(pooled, dedicated)


# --------------------------------------------------------------------------
# RNG derivation regression (satellite): metrics are a function of
# (run_seed, client_id) only — invariant to pool size and turn order
# --------------------------------------------------------------------------
def test_metrics_invariant_to_pool_size():
    baseline = run_spec(make_spec("fedavg", "fedasync", pool_size=None))
    for pool_size in (1, 2, 4, NUM_CLIENTS, NUM_CLIENTS + 3):
        assert_identical(run_spec(make_spec("fedavg", "fedasync", pool_size)), baseline)


@pytest.mark.parametrize("selection", ["round_robin", "power_of_choice"])
def test_metrics_invariant_to_selection_strategy_across_modes(selection):
    # whatever order the selector dispatches clients in, pooling must not
    # perturb the outcome (worker assignment follows selection order)
    pooled = run_spec(make_spec("fedavg", "fedbuff", 2, selection=selection))
    dedicated = run_spec(make_spec("fedavg", "fedbuff", None, selection=selection))
    assert_identical(pooled, dedicated)


def test_client_rng_derives_from_client_id_not_node_index():
    from repro.models.registry import build_model
    from repro.algorithms.base import build_algorithm
    from repro.node.node import Node
    from repro.topology.base import NodeRole, NodeSpec

    def node_with(index, shard):
        spec = NodeSpec(name=f"n{index}", index=index, role=NodeRole.TRAINER, shard=shard)
        return Node(
            spec=spec,
            model=build_model("mlp", num_classes=4, in_features=8, seed=0),
            algorithm=build_algorithm("fedavg"),
            seed=123,
        )

    same_client_different_nodes = [node_with(1, 7), node_with(5, 7)]
    draws = [n._rng.random(4) for n in same_client_different_nodes]
    np.testing.assert_array_equal(draws[0], draws[1])
    loader_draws = [n._loader_rng.random(4) for n in same_client_different_nodes]
    np.testing.assert_array_equal(loader_draws[0], loader_draws[1])

    # ... and the streams match the documented (run_seed, client_id) hash
    np.testing.assert_array_equal(draws[0], client_rng(123, 7, FAULT_STREAM).random(4))
    np.testing.assert_array_equal(loader_draws[0], client_rng(123, 7, DATA_STREAM).random(4))

    # different clients get different streams, fault and data never alias
    other = node_with(1, 8)
    assert not np.array_equal(other._rng.random(4), draws[0])
    assert not np.array_equal(
        client_rng(123, 7, FAULT_STREAM).random(4),
        client_rng(123, 7, DATA_STREAM).random(4),
    )


def test_pool_store_stays_bounded_for_stateless_algorithms():
    spec = make_spec("fedavg", "fedasync", pool_size=2)
    experiment = Experiment(spec)
    experiment.run()
    pool = experiment.engine.pool
    assert pool is not None
    assert pool.turns_run >= TOTAL_UPDATES
    # FedAvg persists no per-client arrays: a 6-client cohort's snapshots
    # must cost (almost) nothing beyond rng bookkeeping
    assert pool.store.nbytes() == 0
    assert len(pool.store) <= NUM_CLIENTS
