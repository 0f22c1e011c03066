"""One protocol-agnostic contract suite run against all four backends —
the unified-API claim of the paper's Communicator module."""

import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

from repro.comm import (
    AmqpCommunicator,
    GrpcCommunicator,
    MqttCommunicator,
    TorchDistCommunicator,
)

WORLD = 4


def make_group(backend, port):
    if backend == "torchdist":
        return [TorchDistCommunicator(r, WORLD, master_port=port) for r in range(WORLD)]
    if backend == "grpc-inproc":
        return [GrpcCommunicator(r, WORLD, master_port=port, transport="inproc") for r in range(WORLD)]
    if backend == "grpc-tcp":
        return [GrpcCommunicator(r, WORLD, master_port=port, transport="tcp") for r in range(WORLD)]
    if backend == "mqtt":
        return [MqttCommunicator(r, WORLD, broker_url=f"mqtt://t{port}") for r in range(WORLD)]
    if backend == "amqp":
        return [AmqpCommunicator(r, WORLD, broker_url=f"amqp://t{port}") for r in range(WORLD)]
    raise ValueError(backend)


BACKENDS = ["torchdist", "grpc-inproc", "grpc-tcp", "mqtt", "amqp"]


def run_all(comms, fn):
    errors = []
    results = [None] * len(comms)

    def work(r):
        try:
            results[r] = fn(comms[r], r)
        except Exception as exc:  # noqa: BLE001
            errors.append((r, exc))

    threads = [threading.Thread(target=work, args=(r,)) for r in range(len(comms))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0][1]
    return results


@pytest.fixture(params=BACKENDS)
def group(request, fresh_port):
    comms = make_group(request.param, fresh_port)
    for c in comms:
        c.setup()
    yield comms
    for c in comms:
        c.shutdown()


def test_broadcast_state(group):
    state = OrderedDict(w=np.arange(6, dtype=np.float32), c=np.asarray(3, np.int64))

    def fn(c, r):
        return c.broadcast_state(state if r == 0 else None, src=0)

    results = run_all(group, fn)
    for out in results:
        assert np.array_equal(out["w"], state["w"])
        assert int(out["c"]) == 3


def test_gather_states_ordering_and_meta(group):
    def fn(c, r):
        return c.gather_states(
            OrderedDict(u=np.full(2, float(r), np.float32)), meta={"num_samples": r * 5}
        )

    results = run_all(group, fn)
    entries = results[0]
    assert [e["rank"] for e in entries] == list(range(WORLD))
    for e in entries:
        assert np.allclose(e["state"]["u"], e["rank"])
        assert e["meta"]["num_samples"] == e["rank"] * 5
    assert all(r is None for r in results[1:])


def test_allreduce_mean(group):
    def fn(c, r):
        return c.allreduce(np.full(9, float(r + 1), np.float32), op="mean")

    results = run_all(group, fn)
    expected = np.mean([r + 1 for r in range(WORLD)])
    for out in results:
        assert np.allclose(out, expected, atol=1e-5)


def test_allreduce_sum_shape_preserved(group):
    def fn(c, r):
        return c.allreduce(np.full((2, 3), 1.0, np.float32), op="sum")

    results = run_all(group, fn)
    for out in results:
        assert out.shape == (2, 3)
        assert np.allclose(out, WORLD)


def test_barrier_completes(group):
    def fn(c, r):
        for _ in range(3):
            c.barrier()
        return True

    assert all(run_all(group, fn))


def test_point_to_point(group):
    def fn(c, r):
        if r == 1:
            c.send({"text": "ping", "arr": np.arange(4, dtype=np.float32)}, dst=2, tag=7)
            return None
        if r == 2:
            msg = c.recv(src=1, tag=7, timeout=10)
            return msg
        return None

    results = run_all(group, fn)
    msg = results[2]
    assert msg["text"] == "ping"
    assert np.allclose(msg["arr"], [0, 1, 2, 3])


def test_multi_round_consistency(group):
    def fn(c, r):
        seen = []
        for rd in range(5):
            if r == 0:
                st = c.broadcast_state(OrderedDict(v=np.full(3, float(rd), np.float32)))
            else:
                st = c.broadcast_state(None)
            seen.append(float(st["v"][0]))
            c.gather_states(OrderedDict(u=np.asarray([r + rd * 10.0], np.float32)))
        return seen

    results = run_all(group, fn)
    for seen in results:
        assert seen == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_stats_track_bytes(group):
    def fn(c, r):
        if r == 0:
            c.broadcast_state(OrderedDict(w=np.zeros(100, np.float32)))
        else:
            c.broadcast_state(None)
        c.gather_states(OrderedDict(u=np.zeros(50, np.float32)))
        return c.stats.snapshot()

    results = run_all(group, fn)
    # every client must have sent at least the 200-byte gather payload
    for snap in results[1:]:
        assert snap["bytes_sent"] >= 200


def test_rank_validation():
    with pytest.raises(ValueError):
        TorchDistCommunicator(5, 4, master_port=39999)


def test_torchdist_recv_times_out_under_other_traffic(fresh_port):
    # every send wakes every waiting recv; a wake-up for another tag must not
    # restart the waiter's timeout
    comms = make_group("torchdist", fresh_port)
    stop = threading.Event()
    outcome = {}

    def chatter():
        while not stop.wait(0.05):
            comms[1].send({"n": 1}, dst=0, tag=9)

    def receive():
        start = time.monotonic()
        try:
            comms[0].recv(src=1, tag=7, timeout=0.3)
        except TimeoutError as exc:
            outcome["error"] = exc
        outcome["elapsed"] = time.monotonic() - start

    sender = threading.Thread(target=chatter, daemon=True)
    receiver = threading.Thread(target=receive, daemon=True)
    sender.start()
    receiver.start()
    receiver.join(timeout=5)
    stop.set()
    sender.join(timeout=5)
    assert not receiver.is_alive() and not sender.is_alive()
    assert isinstance(outcome.get("error"), TimeoutError)
    assert outcome["elapsed"] < 0.6
