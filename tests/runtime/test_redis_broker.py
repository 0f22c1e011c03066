"""The ``redis://`` broker end to end, over the in-repo MiniRedis server.

Worker *processes* pull turns from the queue and must reproduce the memory
broker bit-identically at equal seeds; the lease/requeue protocol must
survive a worker killed mid-turn, and — the regression this PR fixes —
must fail the waiting ticket with :class:`BrokerTurnLost` when no worker
can ever finish the turn, instead of stalling the run.

Fusable turns cross the queue as one item and train as one stacked pass;
lease, dedupe, requeue and loss stay per turn (the fused-item tests below).

The run-level tests take a ``scheme``: ``redis`` serves the run on a
shared server, ``tcp`` on the one its own engine hosts (the same turn loop;
``test_tcp_broker.py`` checks what ``tcp://`` adds).

Runs against any real redis the same way: set ``REDIS_URL`` to point the
fused-item tests and the final test at an external server (the final test
skips cleanly otherwise).
"""

import dataclasses
import json
import os
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine.client_state import ClientSnapshot
from repro.experiment import Experiment, ExperimentSpec
from repro.runtime import BrokerTurnLost, BrokerUnavailable, Broker, serde
from repro.runtime.fused import FusedTurnRunner
from repro.runtime.miniredis import MiniRedis
from repro.runtime.redis import RedisBroker, RedisLink, _Entry
from repro.runtime.resp import RespClient, RespError
from repro.runtime.worker import Worker, run_worker
from tests.runtime.resp_helpers import connect_url

_WALL_FIELDS = ("wall_seconds",)
SCHEMES = ["redis", "tcp"]


@pytest.fixture(scope="module")
def miniredis():
    with MiniRedis() as server:
        yield server


@pytest.fixture(scope="module")
def redis_url(miniredis):
    """The external server when ``REDIS_URL`` names one, else MiniRedis."""
    return os.environ.get("REDIS_URL", "").rstrip("/") or miniredis.url


def served(scheme, server_url, query=""):
    """A run's broker URL: on ``server_url`` (``redis``), or on a server its
    own engine hosts (``tcp``)."""
    base = server_url if scheme == "redis" else "tcp://127.0.0.1:0"
    return f"{base}?{query}" if query else base


def server_conn(broker):
    """A plain RESP client on the server ``broker`` runs its turn loop on."""
    cfg = broker.cfg
    return RespClient(cfg.host, cfg.port, db=cfg.db, password=cfg.password)


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


def _leases_of(conn, broker, pid):
    """Turn ids whose lease the worker process ``pid`` holds."""
    return sorted(int(turn) for turn, raw in conn.hgetall(broker.cfg.key("leases")).items()
                  if json.loads(raw).get("worker", "").endswith(f"-{pid}"))


def _wait_for_published(experiment, timeout=30.0):
    """Poll until the broker has published the experiment's spec."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        engine = experiment.engine
        pool = getattr(engine, "pool", None) if engine is not None else None
        if pool is not None and pool.broker.cfg.port:  # a tcp:// one is bound
            with server_conn(pool.broker) as conn:
                if conn.execute("GET", pool.broker.cfg.key("spec")) is not None:
                    return pool.broker
        time.sleep(0.02)
    raise AssertionError("broker never published the experiment")


# --------------------------------------------------------------------------
# the headline pin: worker processes == in-process pool, bit for bit
# --------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_two_worker_processes_match_memory_broker(scheme, miniredis):
    memory = Experiment(make_spec("memory://", pool_size=2)).run()
    experiment = Experiment(make_spec(served(scheme, miniredis.url, "workers=2&lease=30")))
    redis_result = experiment.run()
    assert_identical(redis_result, memory)

    pool = experiment.engine.pool
    broker = pool.broker
    assert broker.distributed and broker.scheme == scheme
    assert broker.pool_size == 2
    # the training turns crossed as fused items and trained in stacked
    # passes; each result frame says how many turns its pass held
    info = broker.describe()
    assert info["fuses"] and max(info["batch_sizes"]) > 1
    assert sum(info["batch_sizes"].values()) == pool.turns_run
    assert info["requeues"] == 0
    assert broker._procs == []  # workers reaped at shutdown
    if scheme == "tcp":
        return  # its server went with the engine
    # the run's namespace is cleaned out of the shared server
    with connect_url(miniredis.url) as conn:
        leftovers = [k for k in (conn.execute("KEYS", "*") or [])
                     if k.startswith(broker.cfg.namespace().encode("utf8"))]
    assert leftovers == []


@pytest.mark.parametrize("scheme", SCHEMES)
def test_pool_size_maps_to_worker_count_when_url_has_none(scheme, miniredis):
    # legacy knob: pool_size picks the worker count if the URL doesn't
    experiment = Experiment(make_spec(served(scheme, miniredis.url), pool_size=2,
                                      total_updates=4))
    experiment.run()
    broker = experiment.engine.pool.broker
    assert broker.cfg.workers == 2
    assert broker.pool_size == 2


# --------------------------------------------------------------------------
# failure protocol: kill a worker mid-item
# --------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_worker_killed_mid_turn_requeues_to_survivor(scheme, redis_url, monkeypatch):
    # the victim sleeps once per claimed item, so it is killed holding the
    # leases of a whole fused item; each of its turns must requeue on its
    # own (an item of one) and rerun on the survivor from its pre-turn
    # snapshot, so records stay bit-identical to the in-process pool
    memory = Experiment(make_spec("memory://", pool_size=2, total_updates=6)).run()
    monkeypatch.setenv("REPRO_WORKER_TURN_DELAY", "0.6")
    experiment = Experiment(make_spec(
        served(scheme, redis_url, "workers=2&lease=2&hb=0.25&requeues=4"), total_updates=6,
    ))
    thread, outcome = _run_in_thread(experiment)
    broker = _wait_for_procs(experiment)
    deadline = time.monotonic() + 30
    held = victim = None
    with server_conn(broker) as conn:
        while victim is None:
            assert time.monotonic() < deadline, "no worker ever held a fused item"
            for proc in broker._procs:
                leases = _leases_of(conn, broker, proc.pid)
                if len(leases) >= 2:
                    held, victim = leases, proc
                    break
            time.sleep(0.01)
    victim.kill()
    thread.join(timeout=120)
    assert not thread.is_alive(), "run stalled after a worker holding a fused item died"
    assert "error" not in outcome, f"run failed: {outcome.get('error')!r}"
    assert_identical(outcome["result"], memory)
    info = broker.describe()
    assert info["requeues"] == len(held)
    assert info["batch_sizes"].get(1, 0) >= len(held)  # each reran alone


@pytest.mark.parametrize("scheme", SCHEMES)
def test_sole_worker_death_fails_ticket_instead_of_stalling(scheme, miniredis, monkeypatch):
    # the regression: one worker, no retry budget, admission window full of
    # waiting turns — killing the worker mid-turn must surface
    # BrokerTurnLost through the blocked scheduler, not hang the run
    monkeypatch.setenv("REPRO_WORKER_TURN_DELAY", "60")
    experiment = Experiment(make_spec(
        served(scheme, miniredis.url, "workers=1&lease=1&hb=0.25&claim=2&requeues=0"),
        total_updates=6,
    ))
    thread, outcome = _run_in_thread(experiment)
    broker = _wait_for_procs(experiment)
    with server_conn(broker) as conn:
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
# fused items: one queue item per batch, failure handling per turn
# --------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_worker_turn_cap_gives_the_rest_of_its_item_back(scheme, redis_url, monkeypatch):
    memory = Experiment(make_spec("memory://", pool_size=2, total_updates=6)).run()
    experiment = Experiment(make_spec(served(scheme, redis_url, "lease=30"), total_updates=6))
    thread, outcome = _run_in_thread(experiment)
    broker = _wait_for_published(experiment)
    worker_url = broker.worker_url()
    monkeypatch.setenv("REPRO_WORKER_MAX_TURNS", "1")
    capped = Worker(worker_url, worker_id="capped")
    # the first item is the initial cohort, fused: one turn runs, the rest
    # go back to the front of the queue unclaimed, and the worker stops
    assert capped.run() == 1 and not capped.lost
    with server_conn(broker) as conn:
        (item,) = conn.execute("LRANGE", broker.cfg.key("turns"), -1, -1)
        returned = [serde.decode_turn(f)[0] for f in serde.unpack_frames(item)]
        leased = {int(t) for t in conn.hgetall(broker.cfg.key("leases"))}
    assert returned and not leased & set(returned)
    monkeypatch.delenv("REPRO_WORKER_MAX_TURNS")
    exits = []
    finisher = threading.Thread(
        target=lambda: exits.append(run_worker(worker_url, worker_id="finisher")), daemon=True)
    finisher.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and "error" not in outcome, outcome.get("error")
    finisher.join(timeout=30)
    assert exits == [0]
    assert_identical(outcome["result"], memory)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_fused_pass_that_fails_reruns_its_turns_one_by_one(scheme, miniredis, monkeypatch):
    # the worker's fallback is the memory broker's: the runner mutates
    # nothing it is handed, so the exact per-turn path reproduces the item
    memory = Experiment(make_spec("memory://", pool_size=2)).run()

    def failing(self, jobs, baseline):
        raise FloatingPointError("injected failure in the stacked pass")

    monkeypatch.setattr(FusedTurnRunner, "run_batch", failing)
    experiment = Experiment(make_spec(served(scheme, miniredis.url, "lease=30")))
    thread, outcome = _run_in_thread(experiment)
    broker = _wait_for_published(experiment)
    exits = []
    worker = threading.Thread(target=lambda: exits.append(run_worker(
        broker.worker_url(), worker_id="fallback")), daemon=True)
    worker.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and "error" not in outcome, outcome.get("error")
    worker.join(timeout=30)
    assert exits == [0]
    assert_identical(outcome["result"], memory)
    assert set(broker.describe()["batch_sizes"]) == {1}


def test_a_requeued_duplicate_of_a_done_turn_is_released_not_rerun(redis_url):
    # turn 7 completed earlier (its result went out with its done mark) but
    # came back in an item beside turn 8: the claim leases both and runs
    # only 8; the commit releases both and ships 8's result alone
    link = RedisLink(f"{redis_url}?run=dedupe{os.getpid()}", "w")
    key = link.cfg.key
    fresh = serde.encode_result(8, 1, {"x": 2}, worker="w")
    link._conn = link._connect()
    try:
        link._conn.execute("HSET", key("done"), 7, "earlier")
        runnable, gstate, snapshots = link.claim([(7, 0), (8, 1)], [])
        assert runnable == [False, True] and gstate == {} and snapshots == [None, None]
        assert set(link._conn.hgetall(key("leases"))) == {b"7", b"8"}
        link.commit([(8, 1, None, lambda snap_bytes: fresh)])
        (item,) = link._conn.execute("LRANGE", key("results"), 0, -1)
        assert serde.unpack_frames(item) == [fresh]
        assert link._conn.hgetall(key("leases")) == {}
        assert link._conn.execute("HMGET", key("done"), 7, 8) == [b"earlier", b"w"]
        # an item that held only duplicates ships nothing and releases all
        link.claim([(7, 0)], [])
        link.commit([])
        assert link._conn.execute("LLEN", key("results")) == 1
        assert link._conn.hgetall(key("leases")) == {}
    finally:
        link._conn.execute("DEL", *[key(n) for n in ("done", "leases", "results")])
        link._conn.close()


def _until(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_requeued_turn_that_resolves_keeps_its_done_mark(scheme, redis_url):
    # the race: a stalled worker's lease expires and the sweep requeues turn
    # 7; the stalled worker then commits 7 and the collector resolves it.
    # The duplicate is still queued, so 7's done mark must survive the
    # collector's clear, or the next worker to pull it trains 7 again over
    # the snapshot the first run stored
    resolved = []
    pool = type("Pool", (), {"turns_done_batch": staticmethod(resolved.extend),
                             "turn_done": lambda *args, **kwargs: None})()
    query = "lease=30" if scheme == "tcp" else f"run=keepmark{os.getpid()}&lease=30"
    broker = Broker(served(scheme, redis_url, query))
    broker.attach(pool)
    broker.start()
    key, worker_url = broker.cfg.key, broker.worker_url()
    stalled, other = (type(broker).worker_link(worker_url, name) for name in ("stalled", "other"))
    stalled._conn, other._conn = stalled._connect(), other._connect()
    try:
        entry = _Entry(ticket=SimpleNamespace(client=0, method="local_update"),
                       frame=serde.encode_turn(7, 0, "local_update", (), {}))
        with broker._entry_lock:
            broker._entries[7] = entry
        assert stalled.claim([(7, 0)], []) == ([True], {}, [None])
        broker._requeue_or_fail(other._conn, 7, entry, "lease expired")
        snapshot = ClientSnapshot(stats={"loss": 0.5}, turns=1)
        stalled.commit([(7, 0, snapshot, lambda snap_bytes: serde.encode_result(
            7, 0, {"v": 1}, snap_bytes=snap_bytes, worker="stalled"))])
        _until(lambda: len(resolved) == 1, "the collector to resolve turn 7")
        # an ack for a turn nobody tracks: once it is gone from the results
        # list, the pull after 7's resolve (and any HDEL it carried) is done
        other._conn.execute("LPUSH", key("results"),
                            serde.pack_frames([serde.encode_result(999, 9, None)]))
        _until(lambda: other._conn.execute("LLEN", key("results")) == 0,
               "the collector's next pull")
        (frame,) = other.next_item()
        assert serde.decode_turn(frame)[0] == 7
        assert other.claim([(7, 0)], []) == ([False], {}, [None])
        other.commit([])
        stored = other._conn.execute("HGET", key("snap"), 0)
        assert stored == serde.encode_snapshot(snapshot)
    finally:
        broker.shutdown()
        for link in (stalled, other):
            link._conn.close()


def test_client_carries_large_values_and_long_pipelines(redis_url):
    # values past the 64 KiB receive size and 50 replies in one read, on
    # redis 7 as on MiniRedis
    key = f"large-value-{os.getpid()}"
    value = np.random.default_rng(3).bytes(1 << 20)
    with connect_url(redis_url) as conn:
        try:
            assert conn.execute("SET", key, value) == b"OK"
            assert conn.execute("GET", key) == value
            replies = conn.pipeline([("DEL", key)] + [("RPUSH", key, b"%d" % i) for i in range(48)]
                                    + [("LRANGE", key, 0, -1)])
            assert replies == [1] + list(range(1, 49)) + [[b"%d" % i for i in range(48)]]
        finally:
            conn.execute("DEL", key)


_UNFUSABLE = {
    "resnet18": {
        "data": {"dataset": "cifar10", "kwargs": {"train_size": 48, "test_size": 16},
                 "partition": "iid", "batch_size": 8},
        "train": {"algorithm": "fedavg", "model": "resnet18", "global_rounds": 1,
                  "eval_every": 0, "algorithm_kwargs": {"lr": 0.02, "local_epochs": 1,
                                                        "max_batches_per_epoch": 1}},
        "num_clients": 3, "total_updates": 3,
    },
    "scaffold": {"train": {"algorithm": "scaffold", "model": "mlp", "global_rounds": 2,
                           "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1}}},
    "codec": {"plugins": {"compressor": "topk", "compressor_kwargs": {"ratio": 4}}},
    "attacked": {"attack": {"kind": "sign_flip", "fraction": 0.25}},
}


@pytest.mark.parametrize("name", list(_UNFUSABLE))
def test_configurations_that_do_not_fuse_queue_one_turn_per_item(name, redis_url, monkeypatch):
    items = []
    execute_batch = RedisBroker.execute_batch

    def counting(self, tickets):
        items.append(len(tickets))
        return execute_batch(self, tickets)

    monkeypatch.setattr(RedisBroker, "execute_batch", counting)
    spec = dataclasses.replace(make_spec(f"{redis_url}?workers=1&lease=30", total_updates=4),
                               scheduler="sync", **_UNFUSABLE[name])
    experiment = Experiment(spec)
    experiment.run()
    info = experiment.engine.pool.broker.describe()
    assert not info["fuses"]
    assert items and set(items) == {1}
    assert set(info["batch_sizes"]) == {1}


def test_pipeline_and_multi_keep_replies_aligned(redis_url):
    # the same contract on redis 7 as on MiniRedis: an error raises only
    # after every reply is read, and a command the server will not queue
    # aborts the whole transaction with EXECABORT
    key = f"pipeline-test-{os.getpid()}"
    with connect_url(redis_url) as conn:
        try:
            assert conn.pipeline([("DEL", key), ("HSET", key, "a", "1", "b", "2"),
                                  ("HMGET", key, "a", "zz", "b")]) == [0, 2, [b"1", None, b"2"]]
            with pytest.raises(RespError, match="WRONGTYPE"):
                conn.pipeline([("LPUSH", key, "x"), ("HGET", key, "a")])
            assert conn.execute("HGET", key, "b") == b"2"
            with pytest.raises(RespError, match="EXECABORT"):
                conn.multi([("HSET", key, "c", "3"), ("NOSUCHCMD", key)])
            assert conn.execute("HGET", key, "c") is None
            assert conn.multi([("HSET", key, "c", "3"), ("HDEL", key, "a")]) == [1, 1]
        finally:
            conn.execute("DEL", key)


# --------------------------------------------------------------------------
# external workers join a run by URL (the `python -m repro worker` path)
# --------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_external_workers_join_by_url_and_match_memory(scheme, miniredis):
    # ?workers is absent and pool_size is null, so the broker spawns
    # nothing and waits for workers started elsewhere with the namespaced
    # URL it logs — here, run_worker() on two in-process threads
    memory = Experiment(make_spec("memory://", pool_size=2)).run()
    experiment = Experiment(make_spec(served(scheme, miniredis.url, "lease=30")))
    thread, outcome = _run_in_thread(experiment)
    broker = _wait_for_published(experiment)
    assert broker.cfg.workers == 0

    worker_url = broker.worker_url()
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
