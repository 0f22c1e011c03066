"""Worker endings: graceful stop, SIGTERM mid-turn, and a lost server.

``Worker.stop()`` (the SIGTERM/SIGINT path) must not abandon a claimed
turn: the in-flight turn commits normally — on redis its MULTI releases the
lease, on tcp its result frame is posted — the worker deregisters, the
remaining work drains to surviving workers, and the process exits 0.  A
worker whose server dies under it exits 3 instead, so a supervisor can tell
the two apart.  Both endings are checked on both links.
"""

import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.engine.engine import Engine
from repro.experiment import Experiment, ExperimentSpec
from repro.runtime.miniredis import MiniRedis
from repro.runtime.worker import Worker, run_worker
from tests.runtime.resp_helpers import connect_url

LINKS = ("redis", "tcp")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_WALL_FIELDS = ("wall_seconds",)


@pytest.fixture(scope="module")
def miniredis():
    with MiniRedis() as server:
        yield server


def make_spec(broker, pool_size=None, total_updates=8):
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


def _run_in_thread(experiment):
    outcome = {}

    def target():
        try:
            outcome["result"] = experiment.run()
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


def _wait_for_published_broker(experiment, url, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        engine = experiment.engine
        pool = getattr(engine, "pool", None) if engine is not None else None
        if pool is not None and getattr(pool.broker, "cfg", None) is not None:
            with connect_url(url) as conn:
                if conn.execute("GET", pool.broker.cfg.key("spec")) is not None:
                    return pool.broker
        time.sleep(0.02)
    raise AssertionError("broker never published the experiment")


def test_stop_finishes_in_flight_turn_and_deregisters(miniredis, monkeypatch):
    # each turn sleeps after claiming, so stop() reliably lands mid-turn
    monkeypatch.setenv("REPRO_WORKER_TURN_DELAY", "0.3")
    memory = Experiment(make_spec("memory://", pool_size=2)).run()
    monkeypatch.delenv("REPRO_WORKER_TURN_DELAY")

    monkeypatch.setenv("REPRO_WORKER_TURN_DELAY", "0.3")
    experiment = Experiment(make_spec(f"{miniredis.url}?lease=30"))
    thread, outcome = _run_in_thread(experiment)
    broker = _wait_for_published_broker(experiment, miniredis.url)
    worker_url = broker.cfg.with_run(broker.cfg.run)

    stopper = Worker(worker_url, worker_id="stopper")
    survivor = Worker(worker_url, worker_id="survivor")
    threads = [
        threading.Thread(target=w.run, daemon=True) for w in (stopper, survivor)
    ]
    # one queue item carries a whole fused batch, so a survivor started
    # alongside could take every update before the stopper polls: it starts
    # once the stopper holds a lease
    threads[0].start()

    # wait until the stopper holds a lease, then request a graceful stop
    lease_key = broker.cfg.key("leases")
    deadline = time.monotonic() + 30
    with connect_url(miniredis.url) as conn:
        while time.monotonic() < deadline:
            leases = [json.loads(v) for v in conn.hgetall(lease_key).values()]
            if any(entry.get("worker") == "stopper" for entry in leases):
                break
            time.sleep(0.01)
        else:
            raise AssertionError("stopper never claimed a turn")
        threads[1].start()
        stopper.stop()
        threads[0].join(timeout=30)
        assert not threads[0].is_alive(), "stop() did not interrupt the pull loop"
        # the in-flight turn committed (its lease is gone, nothing requeued
        # under the stopper's name) and the heartbeat entry is deregistered
        leases = [json.loads(v) for v in conn.hgetall(lease_key).values()]
        assert not any(entry.get("worker") == "stopper" for entry in leases)
        assert b"stopper" not in conn.hgetall(broker.cfg.key("hb"))

    assert stopper.turns_run > 0, "stopper exited without finishing its turn"

    thread.join(timeout=120)
    assert not thread.is_alive(), "run stalled after a graceful worker stop"
    assert "error" not in outcome, f"run failed: {outcome.get('error')!r}"
    for t in threads:
        t.join(timeout=30)
    # the stopped worker's turns committed normally: identical outcome
    assert records_of(outcome["result"]) == records_of(memory)


def _wait_until(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.mark.parametrize("link", LINKS)
def test_sigterm_to_worker_process_is_graceful(link, miniredis):
    # worker *processes* get the signal handler; SIGTERM mid-turn must
    # commit the in-flight turn and exit 0, and the survivor finishes the run
    url = (f"{miniredis.url}?lease=30" if link == "redis"
           else "tcp://127.0.0.1:0?min_nodes=2&hb=0.1&lease=2&join=60")
    experiment = Experiment(make_spec(url, total_updates=6))
    thread, outcome = _run_in_thread(experiment)
    if link == "redis":
        broker = _wait_for_published_broker(experiment, miniredis.url)
        worker_url = broker.cfg.with_run(broker.cfg.run)
    else:
        broker = _wait_until(
            lambda: experiment.engine is not None and experiment.engine.pool is not None
            and experiment.engine.pool.broker, "the tcp broker to bind")
        worker_url = broker.url

    env = {**os.environ, "PYTHONPATH": SRC, "REPRO_WORKER_TURN_DELAY": "0.3"}

    def spawn():
        return subprocess.Popen([sys.executable, "-m", "repro", "worker", worker_url], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    # on redis one queue item carries a whole fused batch, so a survivor
    # started alongside could drain the run before the victim claims
    # anything: it joins once the victim holds a lease.  A tcp run starts
    # only when both members have joined.
    procs = [spawn()] if link == "redis" else [spawn(), spawn()]
    victim, suffix = procs[0], f"-{procs[0].pid}"
    try:
        # wait until the victim is mid-turn so SIGTERM lands on a claimed turn
        if link == "redis":
            with connect_url(miniredis.url) as conn:
                _wait_until(lambda: any(
                    json.loads(v).get("worker", "").endswith(suffix)
                    for v in conn.hgetall(broker.cfg.key("leases")).values()
                ), "the victim to lease a turn")
            procs.append(spawn())
        else:
            turn_id = _wait_until(lambda: next(
                (t for t, owner in dict(broker._in_flight).items() if owner.endswith(suffix)),
                None,
            ), "the victim to poll a turn")
            ticket = broker._tickets[turn_id]
        os.kill(victim.pid, signal.SIGTERM)

        # graceful exit: returncode 0, not a signal death or a lost server
        assert victim.wait(timeout=30) == 0
        if link == "redis":
            with connect_url(miniredis.url) as conn:  # lease released by the commit
                assert not any(
                    json.loads(v).get("worker", "").endswith(suffix)
                    for v in conn.hgetall(broker.cfg.key("leases")).values()
                )
        else:  # the claimed turn's result was posted before the member left
            assert ticket.done() and ticket._exc is None

        thread.join(timeout=120)
        assert not thread.is_alive(), "run stalled after SIGTERM to a worker"
        assert "error" not in outcome, f"run failed: {outcome.get('error')!r}"
        assert len(outcome["result"].history) == 6
        assert procs[1].wait(timeout=30) == 0  # told to stop by the engine
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


@pytest.mark.parametrize("link", LINKS)
def test_worker_exits_3_when_its_server_dies_under_it(link, caplog):
    # no stop flag, no STOP frame, no signal: the server just goes away
    # under an idle worker.  That is not a finished run — exit 3, and the
    # error names the worker, its last turn and the stage it was in.
    server = MiniRedis().start() if link == "redis" else None
    url = f"{server.url}?lease=30" if server else "tcp://127.0.0.1:0?hb=0.1&lease=1"
    engine = Engine.from_spec(make_spec(url))
    caplog.set_level(logging.INFO, logger="repro")
    logging.getLogger("repro").addHandler(caplog.handler)
    try:
        broker = engine.pool.broker
        if link == "redis":
            broker.start()  # publishes the spec the worker loads
            worker_url = broker.cfg.with_run(broker.cfg.run)
            kill = server.stop
        else:
            worker_url = broker.url
            kill = broker._server.stop  # the socket dies; nothing says "stop"
        exits = []
        worker = threading.Thread(
            target=lambda: exits.append(run_worker(worker_url, worker_id="orphan")),
            daemon=True,
        )
        worker.start()
        if link == "redis":
            with connect_url(server.url) as conn:
                _wait_until(lambda: b"orphan" in conn.hgetall(broker.cfg.key("hb")),
                            "the worker to register")
        else:
            _wait_until(lambda: broker.membership.get("orphan"), "the worker to join")
        # joined is not yet serving: the worker logs this after its first
        # heartbeat, and the next I/O it does is a poll
        _wait_until(lambda: any("worker orphan serving" in r.getMessage()
                                for r in caplog.records), "the worker to serve")
        kill()
        worker.join(timeout=30)
        assert exits == [3]
        message = next(r.getMessage() for r in caplog.records
                       if "lost its server" in r.getMessage())
        assert "worker orphan" in message and "stage poll" in message
        assert "last turn None" in message
    finally:
        logging.getLogger("repro").removeHandler(caplog.handler)
        engine.shutdown()
        if server is not None:
            server.stop()


@pytest.mark.parametrize("link", LINKS)
def test_failed_turn_reports_its_error_and_the_worker_keeps_serving(link, miniredis):
    # the one turn routine hands back (value | error, snapshot): a turn that
    # raises still swaps out, travels back as an error frame with the
    # worker's traceback, and does not take the worker down
    url = f"{miniredis.url}?lease=30" if link == "redis" else "inproc://failed-turn?hb=0.1"
    engine = Engine.from_spec(make_spec(url))
    pool, serving = engine.pool, None
    try:
        if link == "redis":
            pool.start()  # publishes the spec the worker loads
            worker_url = pool.broker.cfg.with_run(pool.broker.cfg.run)
        else:
            worker_url = pool.broker.url  # bound already; start() waits for the worker
        worker = Worker(worker_url, worker_id="w")
        serving = threading.Thread(target=worker.run, daemon=True)
        serving.start()
        pool.start()

        bad = pool.submit(0, "no_such_method")
        with pytest.raises(RuntimeError, match="AttributeError") as err:
            bad.result(timeout=30)
        assert "turn failed on worker w" in str(err.value)
        assert "Traceback" in str(err.value)
        loss, accuracy = pool.submit(0, "evaluate", None, 1).result(timeout=30)
        assert loss > 0 and 0 <= accuracy <= 1
        _wait_until(lambda: worker.turns_run == 2, "the worker to count both turns")
        assert not worker.lost
        if link == "tcp":  # the failed turn's swap-out was kept, then advanced
            assert worker.link._snapshots[0].turns == 2
    finally:
        engine.shutdown()
        if serving is not None:
            serving.join(timeout=30)
            assert not serving.is_alive()
