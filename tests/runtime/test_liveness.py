"""Liveness: the worker's one heartbeat thread and the engine's one rule.

The rule (:func:`silent` over :class:`Marks`) decides death for workers
and turn leases alike, on ``redis://`` and on ``tcp://`` (the same turn loop
against the engine's own server); the :class:`Heartbeater` is the only
heartbeat thread a worker runs.
"""

import threading
import time

import pytest

from repro.engine.engine import Engine
from repro.experiment import ExperimentSpec
from repro.runtime.broker import BROKER_SCHEMES, TurnBroker, WorkerLink, register_broker
from repro.runtime.liveness import Heartbeater, Marks, silent
from repro.runtime.miniredis import MiniRedis
from repro.runtime.worker import Worker
from tests.runtime.resp_helpers import connect_url


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def make_spec(broker):
    return ExperimentSpec(
        topology="centralized", num_clients=2, broker=broker,
        data={"dataset": "blobs", "kwargs": {"train_size": 32, "test_size": 16},
              "partition": "iid", "batch_size": 8},
        train={"algorithm": "fedavg", "model": "mlp", "global_rounds": 1},
        scheduler={"name": "fedasync"}, total_updates=2, seed=0,
    )


def heartbeat_threads():
    return [t for t in threading.enumerate() if t.name == "worker-heartbeat"]


# ------------------------------------------------------------ the rule
def test_alive_within_the_window():
    assert not silent(10.0, 11.9, 2.0)
    assert not silent(10.0, 12.0, 2.0)


def test_dead_past_the_window():
    assert silent(10.0, 12.1, 2.0)


def test_a_new_or_changed_mark_restarts_the_silence():
    marks = Marks()
    assert marks.see("a", b"1.0", now=5.0) == 5.0
    assert marks.see("a", b"1.0", now=9.0) == 5.0  # unchanged: silent since 5
    assert silent(marks.see("a", b"1.0", now=7.5), 7.5, 2.0)
    assert marks.see("a", b"2.0", now=9.0) == 9.0  # renewed
    assert not silent(marks.see("a", b"2.0", now=10.0), 10.0, 2.0)


def test_retain_forgets_keys_gone_from_the_store():
    marks = Marks()
    marks.see("a", 1, 0.0)
    marks.see("b", 1, 0.0)
    marks.retain({"b": b"x"})
    assert marks == {"b": (1, 0.0)}
    # forgotten means a reappearing key starts a fresh silence
    assert marks.see("a", 1, 50.0) == 50.0


# ------------------------------------------------------------ the heartbeat
def test_first_beat_is_sent_synchronously():
    callers = []

    def beat():
        callers.append(threading.current_thread().name)
        return {"stop": False}

    hb = Heartbeater(beat, period=60.0)
    try:
        hb.start()
        # the engine counts the worker before start() returns
        assert callers == [threading.current_thread().name]
        assert hb.beats_sent == 1
    finally:
        hb.stop()


def test_a_failing_first_beat_raises():
    def dead():
        raise ConnectionError("gone")

    hb = Heartbeater(dead, period=0.01)
    with pytest.raises(ConnectionError):
        hb.start()
    assert not heartbeat_threads()


def test_beats_flow_and_counter_advances():
    hb = Heartbeater(lambda: {"stop": False}, period=0.02).start()
    try:
        assert wait_for(lambda: hb.beats_sent >= 3)
    finally:
        hb.stop()
    assert not hb.stopped.is_set()
    assert not hb.lost.is_set()


def test_stop_flag_in_reply_fires_on_stop_once():
    beats = []

    def beat():
        beats.append(1)
        return {"stop": len(beats) > 1}

    hb = Heartbeater(beat, period=0.02).start()
    try:
        assert wait_for(hb.stopped.is_set)
        time.sleep(0.1)  # several periods: a loop still running would beat again
    finally:
        hb.stop()
    assert beats == [1, 1]
    assert not hb.lost.is_set()


def test_stop_in_the_first_reply_starts_no_thread():
    hb = Heartbeater(lambda: {"stop": True}, period=0.01).start()
    assert hb.stopped.is_set()
    assert not heartbeat_threads()


def test_transient_failures_are_forgiven():
    state = {"n": 0}

    def flaky():
        state["n"] += 1
        if state["n"] % 2 == 0:  # every other beat fails
            raise ConnectionError("blip")
        return {"stop": False}

    hb = Heartbeater(flaky, period=0.01, max_failures=3).start()
    try:
        assert wait_for(lambda: hb.beats_sent >= 4)
        assert not hb.lost.is_set()
    finally:
        hb.stop()


def test_consecutive_failures_declare_the_engine_lost():
    state = {"n": 0}

    def dying():
        state["n"] += 1
        if state["n"] > 1:
            raise ConnectionError("gone")
        return {"stop": False}

    hb = Heartbeater(dying, period=0.01, max_failures=3).start()
    try:
        assert wait_for(hb.lost.is_set)
    finally:
        hb.stop()


def test_rejects_non_positive_period():
    with pytest.raises(ValueError):
        Heartbeater(lambda: {"stop": False}, period=0.0)


# ------------------------------------------------------------ the worker loop
class StubLink(WorkerLink):
    """A link whose engine says stop on the second beat."""

    beat_period = 0.01

    def __init__(self, url, worker_id):
        super().__init__(url, worker_id)
        self.beats = []
        self.beats_at_first_pull = None

    def beat(self):
        self.beats.append(threading.current_thread().name)
        return {"stop": len(self.beats) > 1}

    def next_item(self):
        if self.beats_at_first_pull is None:
            self.beats_at_first_pull = len(self.beats)
        # the heartbeat thread ends once it has heard the stop
        wait_for(lambda: len(self.beats) > 1 and not heartbeat_threads())
        return [b"turn"]

    def close(self):
        pass


def run_to_the_end(worker):
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "the worker loop never ended"


@pytest.fixture
def stub_worker():
    @register_broker("stublink")
    class _StubBroker(TurnBroker):
        @classmethod
        def worker_link(cls, url, worker_id):
            return StubLink(url, worker_id)

    try:
        worker = Worker("stublink://x", worker_id="stub")
        worker.node = object()  # nothing to load: no turn reaches a node
        yield worker
    finally:
        del BROKER_SCHEMES["stublink"]


def test_the_worker_beats_before_its_first_pull(stub_worker):
    stub_worker._serve = lambda frames: None
    run_to_the_end(stub_worker)
    link = stub_worker.link
    assert link.beats_at_first_pull == 1
    assert link.beats[0] != "worker-heartbeat"  # sent by the loop's own thread
    assert not stub_worker.lost
    assert not heartbeat_threads()


@pytest.mark.parametrize("stopped", [True, False], ids=["after-stop", "mid-run"])
def test_a_failed_commit_is_lost_only_before_the_engine_said_stop(stub_worker, stopped):
    if not stopped:
        stub_worker.link.beat = lambda: {"stop": False}
        stub_worker.link.next_item = lambda: [b"turn"]

    def commit_fails(frames):
        raise ConnectionError("engine gone")

    stub_worker._serve = commit_fails
    run_to_the_end(stub_worker)
    # the engine went away after saying stop: nobody waited for the result
    assert stub_worker.lost is not stopped
    assert not heartbeat_threads()


@pytest.fixture(scope="module")
def miniredis():
    with MiniRedis() as server:
        yield server


@pytest.mark.parametrize("link", ["redis", "tcp"])
def test_one_heartbeat_thread_per_serving_worker(link, miniredis):
    url = f"{miniredis.url}?lease=30" if link == "redis" else "tcp://127.0.0.1:0?hb=0.1&lease=30"
    engine = Engine.from_spec(make_spec(url))
    pool, serving = engine.pool, None
    try:
        pool.start()  # publishes the spec the worker loads
        broker = pool.broker
        worker = Worker(broker.worker_url(), worker_id="census")
        worker.load()
        assert not heartbeat_threads()
        serving = threading.Thread(target=worker.run, daemon=True)
        serving.start()
        with connect_url(f"redis://{broker.cfg.host}:{broker.cfg.port}") as conn:
            assert wait_for(lambda: b"census" in conn.hgetall(broker.cfg.key("hb")))
        assert pool.submit(0, "evaluate", None, 1).result(timeout=30)
        assert len(heartbeat_threads()) == 1
        assert [t.name for t in threading.enumerate() if "heartbeat" in t.name] \
            == ["worker-heartbeat"]
    finally:
        engine.shutdown()
        if serving is not None:
            serving.join(timeout=30)
            assert not serving.is_alive()
    assert not heartbeat_threads()


def test_a_redis_worker_that_missed_the_stop_hears_it_on_a_beat(miniredis):
    # the engine deletes its namespace right after raising the stop flag; a
    # worker between two pulls at that moment sees neither the flag nor a
    # STOP item, and must still end cleanly rather than poll forever
    engine = Engine.from_spec(make_spec(f"{miniredis.url}?lease=30&hb=0.1"))
    pool, serving = engine.pool, None
    try:
        pool.start()
        broker = pool.broker
        worker = Worker(broker.cfg.with_run(broker.cfg.run), worker_id="late")
        serving = threading.Thread(target=worker.run, daemon=True)
        serving.start()
        with connect_url(miniredis.url) as conn:
            assert wait_for(lambda: b"late" in conn.hgetall(broker.cfg.key("hb")))
            conn.execute("DEL", broker.cfg.key("meta"))  # the run is gone
        serving.join(timeout=10)
        assert not serving.is_alive(), "the worker kept polling a finished run"
        assert not worker.lost
    finally:
        engine.shutdown()
        if serving is not None:
            serving.join(timeout=30)
