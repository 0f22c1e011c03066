"""``memory://`` runs every turn on the thread that pumps the pool.

No pool-worker thread exists: ``execute`` only records a dispatch under the
pool lock, and the pool runs it on the calling thread once the lock is
released.  These tests pin that no thread is started and that the turn runs
on the thread that called ``Experiment.run``, and that shutting down with a
dispatch still recorded leaves no ticket hanging.
"""

import sys
import threading

import pytest

from repro.engine.engine import Engine
from repro.experiment import Experiment, ExperimentSpec
from repro.node.node import Node
from repro.runtime.broker import MemoryBroker
from repro.runtime.fused import FusedTurnRunner


def make_spec(**overrides):
    spec = dict(
        topology="centralized",
        num_clients=6,
        pool_size=2,
        data={"dataset": "blobs", "kwargs": {"train_size": 192, "test_size": 48},
              "partition": "iid", "batch_size": 32},
        train={"algorithm": "fedavg", "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1},
               "model": "mlp", "global_rounds": 2},
        scheduler={"name": "fedasync"},
        total_updates=12,
        seed=0,
    )
    spec.update(overrides)
    return ExperimentSpec(**spec)


@pytest.mark.parametrize("fuses", [True, False], ids=["fused", "per-turn"])
def test_a_memory_run_starts_no_pool_thread(fuses, monkeypatch):
    caller = threading.current_thread()
    turn_threads, pool_threads = [], set()

    def watch(owner, name):
        run = getattr(owner, name)

        def watched(*args, **kwargs):
            turn_threads.append(threading.current_thread())
            pool_threads.update(t.name for t in threading.enumerate()
                                if t.name.startswith("pool_worker"))
            return run(*args, **kwargs)

        monkeypatch.setattr(owner, name, watched)

    # a per-turn run trains through run_client_turn, a fused one through
    # the runner's stacked pass
    watch(Node, "run_client_turn")
    watch(FusedTurnRunner, "run_batch")
    if not fuses:
        monkeypatch.setattr(MemoryBroker, "fusable", lambda self, ticket: False)
    experiment = Experiment(make_spec())
    experiment.run()
    assert len(turn_threads) >= (2 if fuses else 12)
    assert set(turn_threads) == {caller}
    assert not pool_threads
    assert experiment.engine.pool.pool_size == 2  # dispatch slots, not threads


def test_shutdown_runs_a_recorded_dispatch_and_fails_the_queued_turns(monkeypatch):
    engine = Engine.from_spec(make_spec(pool_size=1, num_clients=3,
                                        scheduler={"name": "sync"}))
    engine.setup_async()
    # record the first turn without running it, two more queued behind the
    # only dispatch slot
    with monkeypatch.context() as patch:
        patch.setattr(MemoryBroker, "fusable", lambda self, ticket: False)
        patch.setattr(MemoryBroker, "run_dispatched", lambda self: None)
        tickets = [engine.pool.submit(c, "evaluate", None, 1) for c in range(3)]
    assert [t.started for t in tickets] == [True, False, False]
    assert len(engine.pool.broker._runs) == 1
    stopper = threading.Thread(target=engine.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=30)
    assert not stopper.is_alive(), "shutdown hung on a recorded dispatch"
    # the started turn ran; the queued ones failed instead of hanging
    loss, accuracy = tickets[0].result(timeout=5)
    assert loss > 0 and 0 <= accuracy <= 1
    for ticket in tickets[1:]:
        with pytest.raises(RuntimeError, match="still queued"):
            ticket.result(timeout=5)
    broker = engine.pool.broker
    assert not broker._runs and broker.queue_depth() == 0 and broker.idle_workers() == 1


def test_one_demand_drains_a_long_queue_at_one_stack_depth(monkeypatch):
    # a client's queued turns run one after another, each started by the
    # completion of the one before; that chain is a loop over the run list,
    # so the last of 3 000 runs as deep in the stack as the first (a
    # completion that ran the next turn itself would recurse 3 000 deep)
    engine = Engine.from_spec(make_spec(pool_size=1, num_clients=3,
                                        scheduler={"name": "sync"}))
    engine.setup_async()
    depths = []
    run_turn = Node.run_client_turn

    def deep(self, *args, **kwargs):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        depths.append(depth)
        return run_turn(self, *args, **kwargs)

    monkeypatch.setattr(Node, "run_client_turn", deep)
    try:
        pool = engine.pool
        tickets = [pool.submit(0, "evaluate", None, 1) for _ in range(3000)]
        # the window's worth ran inside submit; the rest wait for a consumer
        assert len(depths) == pool._window and not tickets[-1].started
        tickets[-1].result(timeout=60)
        assert len(depths) == 3000 and all(t.done() for t in tickets)
        assert len(set(depths[pool._window:])) == 1
    finally:
        engine.shutdown()
