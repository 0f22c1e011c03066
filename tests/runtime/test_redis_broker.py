"""The ``redis://`` broker end to end, over the in-repo MiniRedis server.

Worker *processes* pull turns from the queue and must reproduce the memory
broker bit-identically at equal seeds; the lease/requeue protocol must
survive a worker killed mid-turn, and — the regression this PR fixes —
must fail the waiting ticket with :class:`BrokerTurnLost` when no worker
can ever finish the turn, instead of stalling the run.

Runs against any real redis the same way: set ``REDIS_URL`` to point the
final test at an external server (it skips cleanly otherwise).
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.experiment import Experiment, ExperimentSpec
from repro.runtime import BrokerTurnLost, BrokerUnavailable, Broker
from repro.runtime.miniredis import MiniRedis
from repro.runtime.resp import connect_url
from repro.runtime.worker import Worker, run_worker

_WALL_FIELDS = ("wall_seconds",)


@pytest.fixture(scope="module")
def miniredis():
    with MiniRedis() as server:
        yield server


def make_spec(broker, pool_size=None, total_updates=10):
    return ExperimentSpec(
        topology="centralized",
        num_clients=4,
        pool_size=pool_size,
        broker=broker,
        data={
            "dataset": "blobs",
            "kwargs": {"train_size": 192, "test_size": 48},
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
        scheduler={"name": "fedasync", "heterogeneity": {
            "latency": "lognormal", "mean": 0.5, "sigma": 0.5,
        }},
        total_updates=total_updates,
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


def assert_identical(result_a, result_b):
    assert records_of(result_a) == records_of(result_b)
    assert set(result_a.final_state) == set(result_b.final_state)
    for key in result_a.final_state:
        np.testing.assert_array_equal(
            result_a.final_state[key], result_b.final_state[key], err_msg=key
        )


def _run_in_thread(experiment):
    """Start ``experiment.run()`` on a thread; returns (thread, outcome)."""
    outcome = {}

    def target():
        try:
            outcome["result"] = experiment.run()
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


def _wait_for_procs(experiment, timeout=30.0):
    """Poll until the broker has spawned its worker processes."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        engine = experiment.engine
        pool = getattr(engine, "pool", None) if engine is not None else None
        if pool is not None and getattr(pool.broker, "_procs", None):
            return pool.broker
        time.sleep(0.02)
    raise AssertionError("broker never spawned worker processes")


def _wait_for_lease(conn, broker, pids, timeout=30.0):
    """Poll the lease hash until some worker in ``pids`` holds one."""
    deadline = time.monotonic() + timeout
    key = broker.cfg.key("leases")
    while time.monotonic() < deadline:
        for lease_raw in conn.hgetall(key).values():
            worker = json.loads(lease_raw).get("worker", "")
            for pid in pids:
                if worker.endswith(f"-{pid}"):
                    return pid
        time.sleep(0.01)
    raise AssertionError("no targeted worker ever held a lease")


# --------------------------------------------------------------------------
# the headline pin: worker processes == in-process pool, bit for bit
# --------------------------------------------------------------------------
def test_two_worker_processes_match_memory_broker(miniredis):
    memory = Experiment(make_spec("memory://", pool_size=2)).run()
    experiment = Experiment(make_spec(f"{miniredis.url}?workers=2&lease=30"))
    redis_result = experiment.run()
    assert_identical(redis_result, memory)

    broker = experiment.engine.pool.broker
    assert broker.distributed and broker.scheme == "redis"
    assert broker.pool_size == 2
    assert broker._procs == []  # workers reaped at shutdown
    # the run's namespace is cleaned out of the server
    with connect_url(miniredis.url) as conn:
        leftovers = [k for k in (conn.execute("KEYS", "*") or [])
                     if k.startswith(broker.cfg.namespace().encode("utf8"))]
    assert leftovers == []


def test_pool_size_maps_to_worker_count_when_url_has_none(miniredis):
    # legacy knob: pool_size picks the worker count if the URL doesn't
    experiment = Experiment(make_spec(miniredis.url, pool_size=2, total_updates=4))
    experiment.run()
    broker = experiment.engine.pool.broker
    assert broker.cfg.workers == 2
    assert broker.pool_size == 2


# --------------------------------------------------------------------------
# failure protocol: kill a worker mid-turn
# --------------------------------------------------------------------------
def test_worker_killed_mid_turn_requeues_to_survivor(miniredis, monkeypatch):
    # every turn sleeps after claiming its lease, widening the kill window;
    # short lease + fast heartbeat keep recovery quick
    monkeypatch.setenv("REPRO_WORKER_TURN_DELAY", "0.5")
    memory = Experiment(make_spec("memory://", pool_size=2, total_updates=6)).run()
    monkeypatch.setenv("REPRO_WORKER_TURN_DELAY", "0.3")
    experiment = Experiment(make_spec(
        f"{miniredis.url}?workers=2&lease=2&hb=0.25&requeues=4", total_updates=6,
    ))
    thread, outcome = _run_in_thread(experiment)
    broker = _wait_for_procs(experiment)
    with connect_url(miniredis.url) as conn:
        pids = [p.pid for p in broker._procs]
        victim_pid = _wait_for_lease(conn, broker, pids)
    for proc in broker._procs:
        if proc.pid == victim_pid:
            proc.kill()
    thread.join(timeout=120)
    assert not thread.is_alive(), "run stalled after a worker was killed"
    assert "error" not in outcome, f"run failed: {outcome.get('error')!r}"
    # the requeued turn reran from the pre-turn snapshot on the survivor,
    # so the outcome is still bit-identical to the in-process pool
    assert_identical(outcome["result"], memory)


def test_sole_worker_death_fails_ticket_instead_of_stalling(miniredis, monkeypatch):
    # the regression: one worker, no retry budget, admission window full of
    # waiting turns — killing the worker mid-turn must surface
    # BrokerTurnLost through the blocked scheduler, not hang the run
    monkeypatch.setenv("REPRO_WORKER_TURN_DELAY", "60")
    experiment = Experiment(make_spec(
        f"{miniredis.url}?workers=1&lease=1&hb=0.25&claim=2&requeues=0",
        total_updates=6,
    ))
    thread, outcome = _run_in_thread(experiment)
    broker = _wait_for_procs(experiment)
    with connect_url(miniredis.url) as conn:
        pids = [p.pid for p in broker._procs]
        _wait_for_lease(conn, broker, pids)
    broker._procs[0].kill()
    thread.join(timeout=90)
    assert not thread.is_alive(), "run stalled instead of failing the ticket"
    assert "result" not in outcome
    error = outcome["error"]
    assert isinstance(error, BrokerTurnLost), repr(error)
    assert "lost" in str(error)


# --------------------------------------------------------------------------
# external workers join a run by URL (the `python -m repro worker` path)
# --------------------------------------------------------------------------
def test_external_workers_join_by_url_and_match_memory(miniredis):
    # ?workers is absent and pool_size is null, so the broker spawns
    # nothing and waits for workers started elsewhere with the namespaced
    # URL it logs — here, run_worker() on two in-process threads
    memory = Experiment(make_spec("memory://", pool_size=2)).run()
    experiment = Experiment(make_spec(f"{miniredis.url}?lease=30"))
    thread, outcome = _run_in_thread(experiment)

    deadline = time.monotonic() + 30
    broker = None
    while time.monotonic() < deadline and broker is None:
        engine = experiment.engine
        pool = getattr(engine, "pool", None) if engine is not None else None
        if pool is not None and getattr(pool.broker, "cfg", None) is not None:
            with connect_url(miniredis.url) as conn:
                if conn.execute("GET", pool.broker.cfg.key("spec")) is not None:
                    broker = pool.broker
        time.sleep(0.02)
    assert broker is not None, "broker never published the experiment"
    assert broker.cfg.workers == 0

    worker_url = broker.cfg.with_run(broker.cfg.run)
    exits = []
    joiners = [
        threading.Thread(target=lambda: exits.append(run_worker(
            worker_url, worker_id=f"joiner-{i}")), daemon=True)
        for i in range(2)
    ]
    for j in joiners:
        j.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "run never completed on external workers"
    assert "error" not in outcome, f"run failed: {outcome.get('error')!r}"
    for j in joiners:
        j.join(timeout=30)
    # broker shutdown pushed STOP frames, so both workers exited cleanly
    assert exits == [0, 0]
    assert_identical(outcome["result"], memory)


# --------------------------------------------------------------------------
# worker CLI contract
# --------------------------------------------------------------------------
def test_worker_url_requires_run_namespace(miniredis):
    with pytest.raises(ValueError, match="run namespace"):
        Worker(miniredis.url)


def test_worker_exits_2_when_no_experiment_published(miniredis):
    assert run_worker(f"{miniredis.url}?run=nothing-here") == 2


def test_worker_exits_2_when_backend_unreachable():
    assert run_worker("redis://127.0.0.1:1/0?run=x") == 2


def test_broker_start_fails_fast_when_backend_unreachable():
    broker = Broker("redis://127.0.0.1:1/0", num_clients=2)
    with pytest.raises(BrokerUnavailable, match="unreachable"):
        broker.start()


# --------------------------------------------------------------------------
# external redis (CI service container): same protocol, real server
# --------------------------------------------------------------------------
@pytest.mark.skipif(
    not os.environ.get("REDIS_URL"),
    reason="REDIS_URL not set; external-redis smoke skipped",
)
def test_external_redis_service_matches_memory_broker():
    redis_url = os.environ["REDIS_URL"].rstrip("/")
    memory = Experiment(make_spec("memory://", pool_size=2, total_updates=6)).run()
    redis_result = Experiment(
        make_spec(f"{redis_url}?workers=2&lease=30", total_updates=6)
    ).run()
    assert_identical(redis_result, memory)
