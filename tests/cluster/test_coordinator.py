"""Coordinator protocol: join/poll/result flow, eviction, leave, shutdown.

These tests drive the ``inproc://`` broker through real transport channels
(the in-proc transport — same code path as TCP minus the kernel) with a
hand-rolled protocol client on the member side and a recording stand-in for
the pool on the engine side, so the control plane is exercised without
training anything.
"""

import threading
import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.protocol import decode_control, encode_control, peek_kind
from repro.comm.transport import make_channel
from repro.experiment import ExperimentSpec
from repro.runtime import Broker, serde
from repro.runtime.broker import PeerLostError
from repro.runtime.pool import ClientPool

SPEC = ExperimentSpec(seed=7)  # its YAML is echoed opaquely through the join handshake


class RecordingPool:
    """Stands in for ``ClientPool`` on the broker's callback side: records
    every ``turn_done`` so tests read outcomes the way a ticket would."""

    def __init__(self):
        self.done = {}
        self.changed = threading.Condition()

    def turn_done(self, ticket, result, exc, release=None):
        with self.changed:
            self.done[ticket] = (result, exc)
            self.changed.notify_all()

    def result(self, ticket, timeout):
        with self.changed:
            assert self.changed.wait_for(lambda: ticket in self.done, timeout), \
                f"{ticket} never completed"
        value, exc = self.done[ticket]
        if exc is not None:
            raise exc
        return value


class Turn:
    """The slice of ``PoolTicket`` a broker reads."""

    def __init__(self, client, method="m"):
        self.client, self.method, self.args, self.kwargs = client, method, (), {}


def make_coordinator(name, num_clients=4, **params):
    params = {"min_nodes": 1, "hb": 0.05, "lease": 0.4, **params}
    query = "&".join(f"{k}={v}" for k, v in params.items())
    coord = Broker(f"inproc://{name}?{query}", spec=SPEC, num_clients=num_clients)
    assert isinstance(coord, ClusterCoordinator)
    coord.attach(RecordingPool())  # binds the address, as the pool's constructor does
    return coord


def submit(coord, client, method="m"):
    turn = Turn(client, method)
    coord.execute(turn)
    return turn


class FakeNode:
    """Minimal protocol client: join/heartbeat/poll/post-result/leave."""

    def __init__(self, coord, node_id):
        self.node_id = node_id
        kind, address = coord.url.split("://", 1)
        self.chan = make_channel(kind, address)

    def control(self, op, **meta):
        _op, reply = decode_control(self.chan.call(encode_control(op, node_id=self.node_id, **meta)))
        return reply

    def join(self, **caps):
        return self.control("join", caps=caps)

    def poll(self, wait=0.05):
        return self.chan.call(encode_control("poll", node_id=self.node_id, wait=wait))

    def serve_one(self, wait=1.0, value=None):
        frame = self.poll(wait=wait)
        assert peek_kind(frame) == "request"
        turn_id, client, method, args, kwargs = serde.decode_turn(frame)
        result = serde.encode_result(
            turn_id, client,
            {"method": method, "client": client} if value is None else value,
            worker=self.node_id,
        )
        return decode_control(self.chan.call(result))[1]


# ------------------------------------------------------------ join
def test_join_handshake_carries_contract():
    coord = make_coordinator("coord-join", num_clients=3)
    try:
        reply = FakeNode(coord, "n1").join(host="h", pid=1)
        assert reply["ok"]
        assert reply["spec"] == SPEC.to_yaml()
        assert reply["num_clients"] == 3
        assert reply["heartbeat"] == pytest.approx(0.05)
        assert reply["lease"] == pytest.approx(0.4)
        assert coord.membership.get("n1").caps["host"] == "h"
    finally:
        coord.shutdown()


def test_join_without_node_id_rejected():
    coord = make_coordinator("coord-noid")
    try:
        node = FakeNode(coord, "")
        assert not node.join()["ok"]
    finally:
        coord.shutdown()


def test_quorum_blocks_until_enough_members():
    coord = make_coordinator("coord-quorum", min_nodes=2, num_clients=4, join=0.2)
    try:
        with pytest.raises(TimeoutError, match="quorum not reached"):
            coord.start()
        FakeNode(coord, "n1").join()
        FakeNode(coord, "n2").join()
        coord.start()
        assert coord.live_clients() == [0, 1, 2, 3]
        assert coord.pool_size == 2
    finally:
        coord.shutdown()


# ------------------------------------------------------------ turn flow
def test_submit_poll_result_roundtrip():
    coord = make_coordinator("coord-flow", num_clients=2)
    try:
        node = FakeNode(coord, "n1")
        node.join()
        coord.start()
        turn = submit(coord, 0, "local_update")
        assert turn not in coord.pool.done
        assert coord.idle_workers() == 1
        node.serve_one()
        value = coord.pool.result(turn, timeout=5)
        assert value == {"method": "local_update", "client": 0}
        assert coord.queue_depth() == 0
    finally:
        coord.shutdown()


def test_remote_error_surfaces_with_traceback():
    coord = make_coordinator("coord-err", num_clients=1)
    try:
        node = FakeNode(coord, "n1")
        node.join()
        coord.start()
        turn = submit(coord, 0, "local_update")
        frame = node.poll(wait=1.0)
        turn_id, client, *_ = serde.decode_turn(frame)
        assert coord.idle_workers() == 0  # polled, not yet answered
        node.chan.call(serde.encode_error(
            turn_id, client, ValueError("exploded"),
            traceback_text="Traceback: ...", worker="n1",
        ))
        with pytest.raises(RuntimeError, match="exploded"):
            coord.pool.result(turn, timeout=5)
    finally:
        coord.shutdown()


def test_poll_empty_when_no_work():
    coord = make_coordinator("coord-empty", num_clients=1)
    try:
        node = FakeNode(coord, "n1")
        node.join()
        reply = node.poll(wait=0.01)
        assert peek_kind(reply) == "control"
        _op, meta = decode_control(reply)
        assert meta["empty"] and meta["ok"]
    finally:
        coord.shutdown()


def test_poll_from_unknown_member_rejected():
    coord = make_coordinator("coord-ghost")
    try:
        node = FakeNode(coord, "ghost")
        _op, meta = decode_control(node.poll(wait=0.01))
        assert not meta["ok"]
    finally:
        coord.shutdown()


def test_submit_for_unowned_client_fails_fast():
    coord = make_coordinator("coord-unowned", num_clients=2)
    try:
        turn = submit(coord, 0, "local_update")
        # never failed inside execute() (that runs under the pool lock):
        # the sweep thread is woken to do it, well inside one sweep period
        with pytest.raises(PeerLostError, match="no live member"):
            coord.pool.result(turn, timeout=1)
    finally:
        coord.shutdown()


def test_duplicate_result_is_dropped():
    coord = make_coordinator("coord-dup", num_clients=1)
    try:
        node = FakeNode(coord, "n1")
        node.join()
        coord.start()
        turn = submit(coord, 0)
        frame = node.poll(wait=1.0)
        turn_id, client, *_ = serde.decode_turn(frame)
        result = serde.encode_result(turn_id, client, 1, worker="n1")
        first = decode_control(node.chan.call(result))[1]
        second = decode_control(node.chan.call(result))[1]
        assert first.get("duplicate") is None
        assert second.get("duplicate") is True
        assert coord.pool.result(turn, timeout=1) == 1
    finally:
        coord.shutdown()


# ------------------------------------------------------------ failure handling
def test_eviction_fails_queued_and_in_flight_turns():
    coord = make_coordinator("coord-evict", num_clients=2, lease=0.3, hb=0.05)
    try:
        node = FakeNode(coord, "n1")
        node.join()
        coord.start()
        in_flight = submit(coord, 0)
        node.poll(wait=1.0)  # claim it, never answer
        queued = submit(coord, 1)
        # stop heartbeating entirely: the sweep must evict within the lease
        with pytest.raises(PeerLostError, match="evicted"):
            coord.pool.result(in_flight, timeout=5)
        with pytest.raises(PeerLostError, match="evicted"):
            coord.pool.result(queued, timeout=5)
        assert coord.membership.counts()["evicted"] == 1
        assert coord.live_clients() == []
        # post-eviction submits fail fast instead of queueing forever
        with pytest.raises(PeerLostError):
            coord.pool.result(submit(coord, 0), timeout=1)
    finally:
        coord.shutdown()


def test_heartbeats_prevent_eviction():
    coord = make_coordinator("coord-alive", num_clients=1, lease=0.3, hb=0.05)
    try:
        node = FakeNode(coord, "n1")
        node.join()
        coord.start()
        stop = threading.Event()

        def beat_loop():
            while not stop.is_set():
                node.control("heartbeat")
                time.sleep(0.05)

        t = threading.Thread(target=beat_loop, daemon=True)
        t.start()
        try:
            time.sleep(1.0)  # several lease windows
            assert coord.membership.counts()["alive"] == 1
        finally:
            stop.set()
            t.join(timeout=2)
    finally:
        coord.shutdown()


def test_leave_orphans_clients_and_fails_pending():
    coord = make_coordinator("coord-leave", num_clients=2)
    try:
        node = FakeNode(coord, "n1")
        node.join()
        coord.start()
        pending = submit(coord, 0)
        reply = node.control("leave")
        assert reply["orphans"] == [0, 1]
        with pytest.raises(PeerLostError, match="left"):
            coord.pool.result(pending, timeout=1)
        assert coord.live_clients() == []
    finally:
        coord.shutdown()


def test_heartbeat_reply_carries_stop_after_close():
    coord = make_coordinator("coord-stop", num_clients=1, hb=0.5, lease=3)
    node = FakeNode(coord, "n1")
    node.join()
    coord.start()
    queued = submit(coord, 0)

    closer = threading.Thread(target=coord.shutdown, daemon=True)
    closer.start()
    # while shutdown() waits its grace period the control plane still answers
    deadline = time.monotonic() + 2
    saw_stop = False
    while time.monotonic() < deadline:
        try:
            if node.control("heartbeat").get("stop"):
                saw_stop = True
                break
        except (ConnectionError, OSError):
            break  # transport already torn down: shutdown() proceeded
        time.sleep(0.02)
    if saw_stop:
        # a stopping run hands out no more work, even with a turn queued
        assert decode_control(node.poll(wait=0.01))[1]["stop"]
        node.control("leave")
    closer.join(timeout=5)
    assert not closer.is_alive()
    with pytest.raises(PeerLostError):
        coord.pool.result(queued, timeout=1)


def test_close_fails_outstanding_tickets():
    coord = make_coordinator("coord-close", num_clients=1)
    node = FakeNode(coord, "n1")
    node.join()
    coord.start()
    turn = submit(coord, 0)
    coord.shutdown()
    with pytest.raises(PeerLostError, match="shut down"):
        coord.pool.result(turn, timeout=1)


def test_join_rejected_while_stopping():
    coord = make_coordinator("coord-latejoin", num_clients=1)
    coord.shutdown()
    # the transport is stopped; a second coordinator on the same name can
    # bind, proving shutdown released the address
    coord2 = make_coordinator("coord-latejoin", num_clients=1)
    coord2.shutdown()


def test_status_op_reports_members_and_pending():
    coord = make_coordinator("coord-status", num_clients=2)
    try:
        node = FakeNode(coord, "n1")
        node.join()
        coord.start()
        submit(coord, 0)
        meta = node.control("status")
        assert meta["ok"]
        assert meta["pending"] == 1
        assert meta["members"][0]["node_id"] == "n1"
    finally:
        coord.shutdown()


# ------------------------------------------------------------ lock order
def test_eviction_while_another_thread_submits_does_not_deadlock():
    """Dispatch runs pool lock -> broker lock; an eviction completing its
    tickets under the broker lock would run broker lock -> pool lock.  Drive
    a real pool: one thread keeps submitting for a member's clients while
    the member is evicted (no heartbeats) and its turns fail back through
    ``turn_done``.  Every ticket must complete and both threads must finish.
    """
    clients = 32
    coord = Broker("inproc://coord-lockorder?min_nodes=1&hb=0.05&lease=0.3",
                   spec=SPEC, num_clients=clients)
    # a wide-open window: every submit (and every pump after a failed turn)
    # reaches execute(), so dispatch and eviction really interleave
    pool = ClientPool(num_clients=clients, broker=coord,
                      data_provider=None, window=1_000_000)
    deadlocked = True
    try:
        node = FakeNode(coord, "n1")
        node.join()
        pool.start()
        tickets, stop = [], threading.Event()

        def submitter():
            while not stop.is_set():
                tickets.append(pool.submit(len(tickets) % clients, "evaluate"))
                time.sleep(0.0005)

        thread = threading.Thread(target=submitter, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while coord.membership.counts()["evicted"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # keep submitting against the evicted membership too
        stop.set()
        thread.join(timeout=10)
        deadlocked = thread.is_alive()
        assert not deadlocked, "submit deadlocked against an eviction"
        assert coord.membership.counts()["evicted"] == 1
        assert len(tickets) > clients
        for ticket in tickets:
            with pytest.raises(PeerLostError):
                ticket.result(timeout=10)
        assert coord.queue_depth() == 0
    finally:
        if not deadlocked:  # a wedged pool lock would hang the teardown too
            pool.shutdown()
