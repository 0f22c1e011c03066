"""``batch_turns``: fused multi-client turns must be invisible in results.

The opt-in hot path stacks K compatible ``local_update`` turns into one
batched tensor pass.  Its entire contract is *bitwise invisibility*: same
records, same final state as per-turn execution, for every scheduling
policy — fusion may only change how fast results arrive.  These tests pin
that contract (and that fusion actually engaged, so the identity is not
vacuously comparing the fallback to itself), the downgrade on brokers that
cannot batch, the pump's batch-accumulation behavior, and that
``materialize_batches`` hands the runner the DataLoader's own batches.
"""

import dataclasses

import numpy as np
import pytest

import repro.runtime.fused as fused_mod
from repro.data.dataloader import DataLoader, materialize_batches
from repro.data.dataset import ArrayDataset
from repro.engine.client_state import ClientStateStore
from repro.experiment import Experiment, ExperimentSpec
from repro.runtime.broker import TurnBroker
from repro.runtime.pool import ClientPool

_WALL_FIELDS = ("wall_seconds",)

POLICIES = {
    "sync": {"name": "sync"},
    "fedasync": {"name": "fedasync", "heterogeneity": {
        "latency": "lognormal", "mean": 0.5, "sigma": 0.5,
    }},
    "fedbuff": {"name": "fedbuff", "buffer_size": 3, "heterogeneity": {
        "latency": "lognormal", "mean": 0.5, "sigma": 0.5,
    }},
}


def make_spec(policy, algorithm="fedavg", batch_turns=None):
    return ExperimentSpec(
        topology="centralized",
        num_clients=8,
        pool_size=4,
        batch_turns=batch_turns,
        data={
            "dataset": "blobs",
            "kwargs": {"train_size": 256, "test_size": 64},
            "partition": "dirichlet",
            "partition_alpha": 0.5,
            "batch_size": 32,
        },
        train={
            "algorithm": algorithm,
            "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1},
            "model": "mlp",
            "global_rounds": 2,
        },
        scheduler=POLICIES[policy],
        total_updates=16,
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


def assert_identical(a, b):
    assert records_of(a) == records_of(b)
    assert set(a.final_state) == set(b.final_state)
    for key in a.final_state:
        np.testing.assert_array_equal(a.final_state[key], b.final_state[key],
                                      err_msg=key)


# --------------------------------------------------------------------------
# the contract: fused == per-turn, bit for bit, and fusion really ran
# --------------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["sync", "fedasync", "fedbuff"])
def test_batched_turns_bit_identical_to_per_turn(policy, monkeypatch):
    fused_batches = []
    orig = fused_mod.FusedTurnRunner.run_batch

    def counting(self, jobs, baseline):
        fused_batches.append(len(jobs))
        return orig(self, jobs, baseline)

    monkeypatch.setattr(fused_mod.FusedTurnRunner, "run_batch", counting)
    plain = Experiment(make_spec(policy)).run()
    assert fused_batches == []  # batch_turns off: the runner must stay cold
    batched = Experiment(make_spec(policy, batch_turns=4)).run()
    assert fused_batches and max(fused_batches) > 1, "fusion never engaged"
    assert_identical(batched, plain)


def test_batched_turns_with_persistent_model_keys(monkeypatch):
    # fedper keeps personalization layers per client: fused swap-out must
    # persist exactly those keys, and results must still match per-turn
    fused_batches = []
    orig = fused_mod.FusedTurnRunner.run_batch

    def counting(self, jobs, baseline):
        fused_batches.append(len(jobs))
        return orig(self, jobs, baseline)

    monkeypatch.setattr(fused_mod.FusedTurnRunner, "run_batch", counting)
    plain = Experiment(make_spec("sync", algorithm="fedper")).run()
    batched = Experiment(make_spec("sync", algorithm="fedper", batch_turns=4)).run()
    assert fused_batches and max(fused_batches) > 1
    assert_identical(batched, plain)


def test_fusion_ineligible_algorithm_falls_back_identically():
    # scaffold carries per-client algo state, which rules fusion out; the
    # run must silently take the sequential path and still match
    plain = Experiment(make_spec("sync", algorithm="scaffold")).run()
    batched = Experiment(
        make_spec("sync", algorithm="scaffold", batch_turns=4)
    ).run()
    assert_identical(batched, plain)


# --------------------------------------------------------------------------
# pool-side plumbing: downgrade and batch accumulation
# --------------------------------------------------------------------------
class StubBroker(TurnBroker):
    scheme = "stub"
    supports_batching = True

    def __init__(self):
        super().__init__("stub://")
        self.store = ClientStateStore()
        self.singles = []
        self.batches = []

    def start(self):
        pass

    def shutdown(self):
        pass

    @property
    def pool_size(self):
        return 4

    def capacity_free(self):
        return True

    def execute(self, ticket):
        self.singles.append(ticket)

    def execute_batch(self, tickets):
        self.batches.append(list(tickets))

    def queue_depth(self):
        return 0

    def idle_workers(self):
        return 4


class NonBatchingStub(StubBroker):
    supports_batching = False


def test_batch_turns_downgrades_on_non_batching_broker():
    import logging

    records = []

    class Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    handler = Capture(level=logging.WARNING)
    logger = logging.getLogger("repro.pool")
    logger.addHandler(handler)  # the repro tree does not propagate to root
    try:
        pool = ClientPool(None, 4, NonBatchingStub(), None, batch_turns=4)
    finally:
        logger.removeHandler(handler)
    assert pool._batch == 1
    assert any("does not support batch_turns" in r.getMessage() for r in records)


def test_pump_accumulates_until_a_full_batch_or_a_demand():
    broker = StubBroker()
    pool = ClientPool(None, 8, broker, None, batch_turns=3)
    pool._started = True
    payload = {"w": np.zeros(2)}
    t0 = pool.submit(0, "local_update", payload, 0, 0)
    t1 = pool.submit(1, "local_update", payload, 0, 0)
    # two of three: nothing may dispatch yet
    assert broker.singles == [] and broker.batches == []
    pool.submit(2, "local_update", payload, 0, 0)
    # the third submission completes the batch: one fused dispatch of 3
    assert broker.singles == []
    assert [len(b) for b in broker.batches] == [3]
    # a demanded turn must not wait for a full batch (a lone demanded turn
    # dispatches as a plain single)
    t3 = pool.submit(3, "local_update", payload, 0, 0)
    assert broker.singles == [] and len(broker.batches) == 1  # accumulating
    pool._demand(t3)
    assert broker.singles == [t3]
    assert t0.started and t1.started and t3.started


def test_incompatible_turns_never_fuse():
    broker = StubBroker()
    pool = ClientPool(None, 8, broker, None, batch_turns=2)
    pool._started = True
    payload = {"w": np.zeros(2)}
    pool.submit(0, "evaluate", None, 4)  # not a training turn
    pool.submit(1, "local_update", payload, 0, 0)
    pool.submit(2, "local_update", payload, 0, 0)
    assert all(t.method == "evaluate" for t in broker.singles)
    assert all(
        all(t.method == "local_update" for t in batch) for batch in broker.batches
    )


def test_redis_broker_with_batch_turns_matches_fused_memory_broker():
    # the redis broker cannot batch: the pool downgrades to per-turn over
    # worker processes, and the outcome must still match the memory
    # broker's fused path bit for bit (the cross-broker identity the bench
    # records rely on)
    from repro.runtime.miniredis import MiniRedis

    fused = Experiment(make_spec("fedasync", batch_turns=4)).run()
    with MiniRedis() as server:
        spec = dataclasses.replace(
            make_spec("fedasync", batch_turns=4),
            broker=f"{server.url}?workers=2&lease=30",
            pool_size=None,
        )
        over_redis = Experiment(spec).run()
    assert_identical(over_redis, fused)


# --------------------------------------------------------------------------
# materialize_batches == DataLoader, batches and rng consumption both
# --------------------------------------------------------------------------
def loader_batches(dataset, batch_size, rng, epochs, cap=None):
    out = []
    for _ in range(epochs):
        for b, batch in enumerate(DataLoader(dataset, batch_size, shuffle=True,
                                             rng=rng)):
            if cap is not None and b >= cap:
                break
            out.append(batch)
    return out


@pytest.mark.parametrize("n,cap", [(10, None), (10, 2), (1, None), (7, 1)])
def test_materialize_batches_matches_dataloader(n, cap):
    x = np.arange(n * 3, dtype=np.float64).reshape(n, 3)
    y = np.arange(n) % 2
    ds = ArrayDataset(x, y)
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    got = materialize_batches(ds, 3, rng_a, epochs=2, max_batches=cap)
    want = loader_batches(ds, 3, rng_b, epochs=2, cap=cap)
    assert len(got) == len(want)
    for (gx, gy), (wx, wy) in zip(got, want):
        assert gx.dtype == wx.dtype and gy.dtype == wy.dtype
        np.testing.assert_array_equal(gx, wx)
        np.testing.assert_array_equal(gy, wy)
    # identical rng consumption: the next draw agrees (an epoch's shuffle is
    # drawn in full even when the cap truncates the epoch)
    assert rng_a.random() == rng_b.random()


# --------------------------------------------------------------------------
# the runner stacks and calls; it computes nothing itself
# --------------------------------------------------------------------------
def test_fused_runner_carries_no_arithmetic_of_its_own():
    # forward, backward and the optimizer step live in nn/ and are called on
    # the stacks; a matmul, exp, log, where or ``@`` in fused.py is a second
    # copy of a kernel growing back
    import ast

    tree = ast.parse(open(fused_mod.__file__, encoding="utf8").read())
    banned = {"matmul", "exp", "log", "where"}
    found = [
        f"line {node.lineno}: np.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in banned
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ] + [
        f"line {node.lineno}: @"
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not found, found
