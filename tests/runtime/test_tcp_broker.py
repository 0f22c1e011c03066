"""The ``tcp://`` broker's own parts: the server it hosts, and its workers.

Everything between dispatch and resolve is the redis turn loop: the
``redis://`` suites (``test_redis_broker.py``, ``test_redis_liveness.py``)
run on this scheme too, as do the substrate matrix, the liveness and
graceful-worker suites and ``test_live_smoke.py``.  What is ``tcp://``'s
alone is checked here: the engine binds its server when it is built (port 0:
any free one) and frees it at shutdown, after giving a worker that never
hangs up one heartbeat window; the server guards its run with the URL's
password; the run's namespace is fixed; a worker started before its engine
keeps trying for ``ENGINE_WAIT_S`` and then names the endpoint; a worker
beats at the engine's period; and whole runs of every kind equal
``memory://``.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

import repro.runtime.redis as redis_mod
from repro.engine.engine import Engine
from repro.experiment import Experiment, ExperimentSpec
from repro.experiment.spec import FaultSpec
from repro.runtime import serde
from repro.runtime.liveness import Heartbeater
from repro.runtime.redis import TcpBroker
from repro.runtime.resp import RespClient, RespError
from repro.runtime.worker import Worker, run_worker
from repro.telemetry import Telemetry

CLIENTS = 4


def make_spec(broker, total_updates=6, **overrides):
    fields = dict(
        topology="centralized", num_clients=CLIENTS, broker=broker,
        data={"dataset": "blobs", "kwargs": {"train_size": 96, "test_size": 32},
              "partition": "iid", "batch_size": 16},
        train={"algorithm": "fedavg", "model": "mlp", "global_rounds": 1},
        scheduler="fedasync", total_updates=total_updates, seed=5,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def records_of(result):
    return [{k: v for k, v in r.as_dict().items() if k != "wall_seconds"}
            for r in result.history]


def assert_same_run(result, reference):
    assert records_of(result) == records_of(reference)
    assert set(result.final_state) == set(reference.final_state)
    for name, value in reference.final_state.items():
        np.testing.assert_array_equal(result.final_state[name], value, err_msg=name)


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture(scope="module")
def memory():
    return Experiment(make_spec("memory://")).run()


@pytest.fixture
def serve():
    """``serve(url)``: an engine on a ``tcp://`` URL, its run published
    unless ``start=False``; every engine is shut down after."""
    engines = []

    def build(url="tcp://127.0.0.1:0?hb=0.1&lease=30", start=True):
        engine = Engine.from_spec(make_spec(url))
        engines.append(engine)
        if start:
            engine.pool.start()
        return engine

    yield build
    for engine in engines:
        engine.shutdown()


def dial(engine, worker_id="w1"):
    """An opened worker link to ``engine`` (the caller closes it)."""
    link = TcpBroker.worker_link(engine.pool.broker.worker_url(), worker_id)
    link.open()
    return link


def server_conn(engine, password=None):
    """A plain RESP client on the server the engine hosts."""
    return RespClient("127.0.0.1", engine.pool.broker.cfg.port, password=password)


def key(engine, name):
    return engine.pool.broker.cfg.key(name)


# ------------------------------------------------------------ the server
def test_the_engine_binds_at_build_and_frees_the_port_at_shutdown():
    engine = Engine.from_spec(make_spec("tcp://127.0.0.1:0?hb=0.1&lease=2"))
    broker = engine.pool.broker
    port = broker.cfg.port
    assert port != 0 and broker.url == f"tcp://127.0.0.1:{port}"
    with RespClient("127.0.0.1", port) as conn:
        assert conn.ping()  # dialable before the run starts
    engine.shutdown()
    with pytest.raises(RespError, match="cannot connect"):
        RespClient("127.0.0.1", port, timeout=2.0)


def test_a_busy_address_fails_the_engine_build():
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        with pytest.raises(OSError):
            Engine.from_spec(make_spec(f"tcp://127.0.0.1:{port}"))


def test_describe_names_the_bound_endpoint_and_the_fixed_namespace(serve):
    engine = serve("tcp://:pw@127.0.0.1:0?hb=0.5&lease=4")
    broker = engine.pool.broker
    info = json.loads(json.dumps(broker.describe()))
    assert info["scheme"] == "tcp" and info["url"] == f"tcp://127.0.0.1:{broker.cfg.port}"
    assert info["namespace"] == "repro:tcp" and info["lease"] == 4.0
    assert info["requeues"] == 0 and info["distributed"] is True
    assert broker.worker_url() == f"tcp://:pw@127.0.0.1:{broker.cfg.port}"


def test_two_engines_serve_their_own_runs(serve):
    one, two = serve(), serve()
    assert one.pool.broker.cfg.port != two.pool.broker.cfg.port
    one.pool.submit(0, "evaluate", None, 1)
    ticket = two.pool.submit(1, "evaluate", None, 1)
    link = dial(two)
    try:
        frames = None
        while frames is None:
            frames = link.next_item()
        (turn,) = [serde.decode_turn(frame) for frame in frames]
        assert turn[1] == 1
        with server_conn(one) as conn:
            assert conn.execute("LLEN", key(one, "turns")) == 1  # still waiting there
        link.claim([(turn[0], turn[1])], [])
        link.commit([(turn[0], turn[1], None, lambda n: serde.encode_result(
            turn[0], turn[1], (0.5, 0.25), snap_bytes=n, worker="w1"))])
        assert tuple(ticket.result(timeout=10)) == (0.5, 0.25)
    finally:
        link.close()


def test_the_requeue_counter_advances_by_what_describe_reports(serve):
    engine = serve()
    telemetry = Telemetry(trace=False)
    telemetry.on_setup(engine)
    broker = engine.pool.broker

    def counted():
        telemetry._sample_runtime_gauges()
        return telemetry.registry.counter("repro_broker_requeues_total", "").value

    assert counted() == 0
    broker._requeues = 2
    assert counted() == 2
    assert counted() == 2  # re-sampling never counts twice
    broker._requeues = 3
    assert counted() == 3
    telemetry.on_shutdown(engine)


# ------------------------------------------------------------ the password
def test_a_stranger_cannot_rewrite_the_spec_of_a_password_engine(serve):
    engine = serve("tcp://:s3cret@127.0.0.1:0?hb=0.1&lease=30")
    with server_conn(engine) as stranger:
        with pytest.raises(RespError, match="NOAUTH"):
            stranger.execute("SET", key(engine, "spec"), "evil: 1")
        with pytest.raises(RespError, match="NOAUTH"):
            stranger.execute("FLUSHALL")
    with pytest.raises(RespError, match="WRONGPASS"):
        server_conn(engine, password="guess")
    with server_conn(engine, password="s3cret") as owner:
        published = owner.execute("GET", key(engine, "spec")).decode("utf8")
    assert ExperimentSpec.from_yaml(published) == engine.spec


def test_a_worker_with_the_wrong_password_exits_2_at_once(serve):
    engine = serve("tcp://:s3cret@127.0.0.1:0?hb=0.1&lease=30")
    port = engine.pool.broker.cfg.port
    start = time.monotonic()
    assert run_worker(f"tcp://:guess@127.0.0.1:{port}", worker_id="w1") == 2
    assert run_worker(f"tcp://127.0.0.1:{port}", worker_id="w2") == 2
    assert time.monotonic() - start < redis_mod.ENGINE_WAIT_S / 3  # no retrying


# ------------------------------------------------------------ start order
def test_open_before_the_run_is_published_names_its_namespace(serve):
    engine = serve(start=False)  # bound, nothing published
    link = TcpBroker.worker_link(engine.pool.broker.url, "w1")
    link.patience = 0.0
    with pytest.raises(RespError, match="no experiment published under namespace 'repro:tcp'"):
        link.open()


def test_open_waits_out_its_patience_then_names_the_endpoint():
    port = free_port()
    link = TcpBroker.worker_link(f"tcp://127.0.0.1:{port}", "w1")
    link.patience = 0.6
    start = time.monotonic()
    with pytest.raises(RespError, match=f"cannot connect to redis at 127.0.0.1:{port}"):
        link.open()
    assert 0.6 <= time.monotonic() - start < 5.0


def test_open_retries_until_the_engine_publishes(serve):
    engine = serve(start=False)
    link = TcpBroker.worker_link(engine.pool.broker.url, "early")
    opened = {}
    opener = threading.Thread(target=lambda: opened.update(reply=link.open()), daemon=True)
    opener.start()
    time.sleep(0.4)  # the worker is retrying against a server with no run
    assert opener.is_alive()
    engine.pool.start()
    opener.join(timeout=10)
    try:
        assert not opener.is_alive() and opened["reply"][1] == CLIENTS
    finally:
        link.close()


def test_a_worker_started_before_its_engine_waits_for_it(memory):
    port = free_port()
    exits = []
    worker = threading.Thread(
        target=lambda: exits.append(run_worker(f"tcp://127.0.0.1:{port}", worker_id="early")),
        daemon=True,
    )
    worker.start()  # nothing listens on the port yet
    result = Experiment(make_spec(f"tcp://127.0.0.1:{port}?hb=0.2&lease=5")).run()
    worker.join(timeout=30)
    assert not worker.is_alive() and exits == [0]
    assert records_of(result) == records_of(memory)


def test_a_worker_whose_engine_never_binds_exits_2(monkeypatch):
    monkeypatch.setattr(redis_mod, "ENGINE_WAIT_S", 0.5)
    assert run_worker(f"tcp://127.0.0.1:{free_port()}", worker_id="w1") == 2


def test_a_worker_whose_engine_never_publishes_exits_2(serve, monkeypatch):
    engine = serve(start=False)
    monkeypatch.setattr(redis_mod, "ENGINE_WAIT_S", 0.5)
    assert run_worker(engine.pool.broker.url, worker_id="w1") == 2


def test_a_worker_beats_at_the_engines_period():
    engine = Engine.from_spec(make_spec("tcp://127.0.0.1:0?hb=0.15&lease=2"))
    try:
        engine.pool.start()  # publishes the run
        worker = Worker(engine.pool.broker.url, worker_id="paced")  # no hb in its URL
        assert worker.link.beat_period == 1.0  # the URL default, until it opens
        worker.link.open()
        assert worker.link.beat_period == 0.15
        worker.link.close()
    finally:
        engine.shutdown()


# ------------------------------------------------------------ hanging up
def test_a_worker_pulls_stop_and_its_hang_up_frees_the_server(serve):
    engine = serve("tcp://127.0.0.1:0?hb=1&lease=30")  # would wait 3 s for a silent worker
    link = dial(engine)
    stopper = threading.Thread(target=engine.shutdown, daemon=True)
    stopper.start()
    assert wait_for(lambda: link.next_item() is link.STOP)
    link.close()
    stopper.join(timeout=2.5)
    assert not stopper.is_alive()


def test_a_worker_that_never_hangs_up_holds_the_server_one_heartbeat_window(serve):
    engine = serve("tcp://127.0.0.1:0?hb=0.2&lease=30")  # window: 1 s
    port = engine.pool.broker.cfg.port
    link = dial(engine)
    heart = Heartbeater(link.beat, link.beat_period).start()
    try:
        start = time.monotonic()
        engine.shutdown()
        assert 0.8 <= time.monotonic() - start < 5.0
        with pytest.raises(RespError, match="cannot connect"):
            RespClient("127.0.0.1", port, timeout=2.0)
        assert heart.lost.wait(5.0)  # its beats now fail
    finally:
        heart.stop()
        link.close()


# ------------------------------------------------------------ whole runs
@pytest.mark.parametrize("password", ["", ":s3cret@"])
def test_spawned_workers_dial_the_engine_and_match_memory(memory, password):
    experiment = Experiment(make_spec(f"tcp://{password}127.0.0.1:0?workers=1&hb=0.2&lease=5"))
    result = experiment.run()
    assert records_of(result) == records_of(memory)
    assert experiment.engine.pool.broker.describe()["workers"] == 1


def run_with_thread_workers(spec, count=2):
    """Run ``spec`` served by ``count`` in-thread workers dialled at its URL."""
    experiment = Experiment(spec)
    outcome = {}

    def target():
        try:
            outcome["result"] = experiment.run()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    assert wait_for(lambda: experiment.engine is not None and experiment.engine.pool is not None,
                    timeout=30), "engine never came up"
    workers = [Worker(experiment.engine.pool.broker.url, worker_id=f"w{i}") for i in range(count)]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for thread in threads:
        thread.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "run hung"
    if "error" in outcome:
        raise outcome["error"]
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert not any(w.lost for w in workers)
    return outcome["result"]


@pytest.mark.parametrize("scheduler", ["fedbuff", "semi_sync"])  # sync: the substrate matrix
def test_every_scheduler_runs_on_tcp_as_on_memory(scheduler):
    reference = Experiment(make_spec("memory://", 8, pool_size=2, scheduler=scheduler)).run()
    result = run_with_thread_workers(
        make_spec("tcp://127.0.0.1:0?hb=0.1&lease=5", 8, scheduler=scheduler))
    assert len(result.history) > 0
    assert_same_run(result, reference)


def test_scripted_faults_run_on_tcp_as_on_memory():
    faults = FaultSpec(drop_prob=0.3, straggler_prob=0.3, straggler_delay=2.0)
    reference = Experiment(make_spec("memory://", pool_size=2, faults=faults)).run()
    result = run_with_thread_workers(make_spec("tcp://127.0.0.1:0?hb=0.1&lease=5", faults=faults))
    assert_same_run(result, reference)
