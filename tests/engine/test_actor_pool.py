"""Actor-runtime and client-pool edges: failure propagation, lifecycle,
and worker reuse after a failed turn.

The pool's safety story is that ``begin_client_turn`` re-initializes every
piece of per-client state, so a worker that just ran a *failed* turn is as
good as a fresh one — these tests pin that, plus the actor primitives the
engine builds on (fail-fast ``wait_all``, submit-after-stop).  How a stopped
pool fails the turns queued behind a busy slot is pinned against a scripted
broker in ``tests/runtime/test_pool_timeouts.py``: on ``memory://`` a turn
runs inside ``submit``, so none is ever queued behind a busy worker.
"""

import time

import numpy as np
import pytest

from repro.engine.actor import ActorHandle, wait_all
from repro.engine.engine import Engine
from repro.experiment import ExperimentSpec


class Worker:
    def __init__(self):
        self.calls = []

    def ok(self, value):
        self.calls.append(value)
        return value * 2

    def slow(self, seconds, value):
        time.sleep(seconds)
        return value

    def boom(self):
        raise RuntimeError("worker exploded")


# --------------------------------------------------------------------------
# actor primitives
# --------------------------------------------------------------------------
def test_wait_all_fails_fast_on_first_exception():
    actor_a = ActorHandle(Worker(), name="a")
    actor_b = ActorHandle(Worker(), name="b")
    try:
        futures = [actor_b.submit("slow", 2.0, 1), actor_a.submit("boom")]
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="worker exploded"):
            wait_all(futures, timeout=30)
        # the failure surfaced without waiting out the 2s sleeper
        assert time.perf_counter() - start < 1.5
    finally:
        actor_a.stop()
        actor_b.stop()


def test_wait_all_timeout_reports_pending_count():
    actor = ActorHandle(Worker(), name="t")
    try:
        futures = [actor.submit("slow", 1.0, 1)]
        with pytest.raises(TimeoutError, match="1 actor call"):
            wait_all(futures, timeout=0.05)
    finally:
        actor.stop()


def test_submit_after_stop_raises():
    actor = ActorHandle(Worker(), name="stopped")
    assert actor.submit("ok", 1).result(5) == 2
    actor.stop()
    with pytest.raises(RuntimeError, match="has been stopped"):
        actor.submit("ok", 2)
    actor.stop()  # idempotent


# --------------------------------------------------------------------------
# pool-worker reuse across (and after) failures
# --------------------------------------------------------------------------
def pooled_engine(pool_size=1, num_clients=3, seed=0):
    spec = ExperimentSpec(
        topology="centralized",
        num_clients=num_clients,
        pool_size=pool_size,
        data={
            "dataset": "blobs",
            "kwargs": {"train_size": 192, "test_size": 48},
            "partition": "iid",
            "batch_size": 32,
        },
        train={
            "algorithm": "scaffold",
            "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1},
            "model": "mlp",
        },
        scheduler={"name": "sync"},
        seed=seed,
    )
    engine = Engine.from_spec(spec)
    engine.setup_async()
    return engine


def _turn(engine, client):
    payload = engine.nodes[0].algorithm.server_payload(engine.nodes[0].global_state)
    return engine.pool.submit(client, "local_update", payload, 0, 0)


def test_failed_turn_propagates_and_leaves_no_leaked_state():
    clean = pooled_engine()
    dirty = pooled_engine()
    try:
        # both pools: client 0 trains one turn
        ref_first = _turn(clean, 0).result(60)
        got_first = _turn(dirty, 0).result(60)

        # dirty pool: client 1's turn fails mid-flight on the same worker
        bad = dirty.pool.submit(1, "run_round", 0, "no-such-pattern")
        with pytest.raises(ValueError, match="unknown coordination pattern"):
            bad.result(60)
        assert isinstance(bad.exception(), ValueError)

        # the worker keeps serving: client 2 trains (fresh state), then
        # client 0 trains again — bit-identical to the pool that never saw
        # a failure, i.e. nothing leaked from the failed turn
        ref_other = _turn(clean, 2).result(60)
        got_other = _turn(dirty, 2).result(60)
        ref_second = _turn(clean, 0).result(60)
        got_second = _turn(dirty, 0).result(60)
        for ref, got in ((ref_first, got_first), (ref_other, got_other), (ref_second, got_second)):
            assert ref["stats"] == got["stats"]
            for key in ref["state"]:
                np.testing.assert_array_equal(ref["state"][key], got["state"][key], err_msg=key)

        # the failed client kept a snapshot (dedicated-node semantics: the
        # node is left as the failure left it) and its turn counter advanced
        assert 1 in dirty.pool.store
    finally:
        clean.shutdown()
        dirty.shutdown()


def test_pool_submit_after_stop_raises():
    engine = pooled_engine()
    try:
        _turn(engine, 0).result(60)
        engine.pool.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            _turn(engine, 1)
    finally:
        engine.shutdown()


def test_per_client_fifo_under_contention():
    """Turns for one client execute in submission order even when the pool
    interleaves other clients between them."""
    engine = pooled_engine(pool_size=2, num_clients=3)
    try:
        tickets = []
        for _ in range(3):
            for client in range(3):
                tickets.append((client, _turn(engine, client)))
        for _, t in tickets:
            t.result(120)
        # each client ran exactly 3 turns, in order: its stored turn counter
        # says 3 and its loader rng advanced three epochs
        for client in range(3):
            assert engine.pool.store.get(client).turns == 3
        assert engine.pool.turns_run == 9
    finally:
        engine.shutdown()
