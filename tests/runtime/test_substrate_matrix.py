"""The substrate invariant, first row: one spec, every pooled substrate.

A turn is bit-identical wherever it runs — in-process actor threads
(``memory://``), worker processes behind a redis queue (``redis://`` over
MiniRedis) or live cluster members (``inproc://``, the tcp broker minus the
kernel) — because every substrate rebuilds its trainer from the same seeded
factories and runs the same turn routine.  This is the substrate axis of
ROADMAP item 5's conformance matrix for one (policy, algorithm) cell:
``sync`` x fedavg.  New substrates add a URL here, not a fixture.
"""

import threading
import time

import numpy as np
import pytest

from repro.experiment import Experiment, ExperimentSpec
from repro.runtime.miniredis import MiniRedis
from repro.runtime.worker import Worker

#: record fields that legitimately differ between substrates
_EXCLUDED = {
    "wall_seconds": "wall-clock duration of the run so far",
    "sim_time": "live runs keep their clock on the wall, simulated runs on the "
                "virtual latency model",
}
_COMPARED = ("applied", "train_loss", "train_accuracy", "eval_loss", "eval_accuracy")


def make_spec(broker, pool_size=None):
    return ExperimentSpec(
        topology="centralized",
        num_clients=4,
        pool_size=pool_size,
        broker=broker,
        data={"dataset": "blobs", "kwargs": {"train_size": 256, "test_size": 64},
              "partition": "dirichlet", "partition_alpha": 0.5, "batch_size": 32},
        train={"algorithm": "fedavg", "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1},
               "model": "mlp", "global_rounds": 3, "eval_every": 1},
        scheduler="sync",
        seed=3,
    )


def run_with_thread_workers(spec, count=2):
    """Run ``spec`` on a broker that waits for external workers, serving it
    with ``count`` in-thread :class:`Worker` s."""
    experiment = Experiment(spec)
    outcome = {}

    def target():
        try:
            outcome["result"] = experiment.run()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    deadline = time.monotonic() + 30
    while experiment.engine is None or experiment.engine.pool is None:
        assert time.monotonic() < deadline, "engine never came up"
        time.sleep(0.01)
    workers = [Worker(experiment.engine.pool.broker.url, worker_id=f"w{i}")
               for i in range(count)]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for t in threads:
        t.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "run hung"
    if "error" in outcome:
        raise outcome["error"]
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert all(w.turns_run > 0 and not w.lost for w in workers)
    return outcome["result"]


def run_on(substrate):
    if substrate == "memory":
        return Experiment(make_spec("memory://", pool_size=2)).run()
    if substrate == "redis":
        with MiniRedis() as server:
            experiment = Experiment(make_spec(f"{server.url}?workers=2&lease=30"))
            result = experiment.run()
        # the redis arm fuses too: its workers report stacked passes
        assert max(experiment.engine.pool.broker.describe()["batch_sizes"]) > 1
        return result
    return run_with_thread_workers(make_spec("inproc://substrate-matrix?min_nodes=2&hb=0.1"))


@pytest.fixture(scope="module")
def reference():
    return run_on("memory")


@pytest.mark.parametrize("substrate", ["redis", "inproc"])
def test_substrate_reproduces_the_memory_pool_bit_for_bit(substrate, reference):
    result = run_on(substrate)
    assert len(result.history) == len(reference.history) == 3
    for got, want in zip(result.history, reference.history):
        got, want = got.as_dict(), want.as_dict()
        for field in _COMPARED:
            assert got[field] is not None
            assert got[field] == want[field], (substrate, field)
        # nothing else may differ silently: any other field that does must
        # be listed above with its reason
        differing = {k for k in want if got[k] != want[k]}
        assert differing <= set(_EXCLUDED), differing
    assert set(result.final_state) == set(reference.final_state)
    for key, value in reference.final_state.items():
        np.testing.assert_array_equal(result.final_state[key], value, err_msg=key)
