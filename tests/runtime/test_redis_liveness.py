"""Redis-broker sweep liveness: clock-domain bugfix + gstate interning.

The old sweep compared worker *wall-clock* lease deadlines and heartbeat
stamps against the engine's own ``time.time()`` — correct only when every
host's wall clock agrees.  Across machines (or across one NTP step on
either side) the comparison expires leases on perfectly live workers, or
keeps dead ones alive.  The fix judges liveness purely by *change
detection* on the engine's monotonic clock: a worker that keeps rewriting
its heartbeat/lease values is alive no matter what its wall clock says;
values frozen longer than the window mean death.  These tests drive
``_sweep`` directly with a scripted connection and a controllable
monotonic clock, so both clock domains are exercised without real redis.

Also pins the gstate interning half of the round-decode cache: one
dispatch epoch's payload is shipped to the ``gstate`` hash once, turn
frames carry a sentinel instead of a model copy, and entries no in-flight
turn references get pruned.

Every test runs on a ``redis://`` and a ``tcp://`` broker: both sweep alike.
"""

import json

import numpy as np
import pytest

from repro.runtime import serde
from repro.runtime.broker import Broker, BrokerTurnLost
from repro.runtime.redis import _Entry


class FakeClock:
    """Stands in for the ``time`` module inside repro.runtime.redis."""

    def __init__(self):
        self.mono = 1000.0
        self.wall = 5_000_000.0

    def monotonic(self):
        return self.mono

    def time(self):
        return self.wall


class FakeConn:
    """Just enough RESP surface for _sweep/execute: hashes + a list."""

    def __init__(self):
        self.hashes = {}
        self.lists = {}
        self.commands = []
        self.pipelines = []  # each pipeline's commands: one round trip apiece

    def hgetall(self, key):
        return dict(self.hashes.get(key, {}))

    def execute(self, cmd, *args):
        self.commands.append((cmd,) + tuple(args))
        if cmd == "HSET":
            fields = self.hashes.setdefault(args[0], {})
            fields.update(zip(args[1::2], args[2::2]))
        elif cmd == "HDEL":
            for field in args[1:]:
                self.hashes.get(args[0], {}).pop(field, None)
        elif cmd in ("LPUSH", "RPUSH"):
            self.lists.setdefault(args[0], []).append(args[1])
        return None

    def pipeline(self, commands, timeout=None):
        self.pipelines.append(list(commands))
        return [self.execute(*cmd) for cmd in commands]


def turn_frames(conn, broker):
    """Every turn frame queued so far, item by item."""
    return [f for item in conn.lists[broker.cfg.key("turns")] for f in serde.unpack_frames(item)]


class FakePool:
    def __init__(self):
        self.done = []

    def turn_done(self, ticket, result, exc, release=None):
        self.done.append((ticket, result, exc))
        if release is not None:
            release()

    def turns_done_batch(self, outcomes):
        self.done.extend(outcomes)


class FakeTicket:
    def __init__(self, client=0, method="local_update", args=(), kwargs=None):
        self.client = client
        self.method = method
        self.args = args
        self.kwargs = kwargs or {}


#: the same sweep behind both remote schemes: ``tcp://`` only adds the server
URLS = {"redis": "redis://127.0.0.1:6399/0?run=t&lease=5&hb=1&claim=2&requeues=1",
        "tcp": "tcp://127.0.0.1:6399?lease=5&hb=1&claim=2&requeues=1"}


@pytest.fixture(params=sorted(URLS))
def broker(request, monkeypatch):
    clock = FakeClock()
    import repro.runtime.redis as redis_mod

    monkeypatch.setattr(redis_mod, "time", clock)
    b = Broker(URLS[request.param])
    b.pool = FakePool()
    b._conn = FakeConn()
    return b, clock, b._conn


def lease_value(deadline, worker="w-1"):
    return json.dumps({"worker": worker, "deadline": deadline}).encode("utf8")


def add_entry(broker, turn_id, client=0, submitted=0.0):
    entry = _Entry(ticket=FakeTicket(client=client), frame=b"frame-%d" % turn_id)
    entry.submitted = submitted  # pin to the fake monotonic domain
    broker._entries[turn_id] = entry
    return entry


# --------------------------------------------------------------------------
# the clock-domain regression
# --------------------------------------------------------------------------
def test_renewing_worker_survives_engine_wall_clock_skew(broker):
    b, clock, conn = broker
    add_entry(b, 7)
    leases = conn.hashes.setdefault(b.cfg.key("leases"), {})
    hb = conn.hashes.setdefault(b.cfg.key("hb"), {})
    # the worker's wall clock trails the engine's by an hour: every deadline
    # it writes is already "expired" by engine wall time.  The old sweep
    # requeued on the very first pass; change detection must keep the turn
    # leased as long as renewals keep arriving.
    for step in range(10):
        worker_wall = clock.wall - 3600.0 + step
        leases[b"7"] = lease_value(worker_wall + b.cfg.lease)
        hb[b"w-1"] = str(worker_wall).encode("utf8")
        b._sweep(conn)
        clock.mono += 1.0
    assert b.pool.done == []
    assert 7 in b._entries
    assert b._entries[7].leased
    assert not any(c[0] == "RPUSH" for c in conn.commands)


def test_frozen_lease_requeues_then_fails_by_monotonic_age(broker):
    b, clock, conn = broker
    entry = add_entry(b, 3)
    leases = conn.hashes.setdefault(b.cfg.key("leases"), {})
    # the dead worker's last write has a deadline comfortably in the engine's
    # wall-clock future — the old sweep would have trusted it forever if the
    # worker's clock ran fast; monotonic no-change detection must not
    frozen = lease_value(clock.wall + 9999.0)
    leases[b"3"] = frozen
    b._sweep(conn)  # first sighting: starts the no-change timer
    clock.mono += b.cfg.lease + 0.5
    b._sweep(conn)  # unchanged past the lease: requeue (budget is 1)
    assert entry.requeues == 1
    # requeued alone: an item of one
    assert conn.lists[b.cfg.key("turns")] == [serde.pack_frames([entry.frame])]
    assert b.pool.done == []
    # the requeued turn gets claimed and freezes again: budget exhausted
    leases[b"3"] = frozen
    b._sweep(conn)
    clock.mono += b.cfg.lease + 0.5
    leases[b"3"] = frozen  # HDEL from the first expiry removed it
    b._sweep(conn)
    assert 3 not in b._entries
    ((_, result, exc),) = b.pool.done
    assert result is None
    assert isinstance(exc, BrokerTurnLost)


def test_unclaimed_turn_fails_only_when_no_heartbeat_changes(broker):
    b, clock, conn = broker
    add_entry(b, 1)
    hb = conn.hashes.setdefault(b.cfg.key("hb"), {})
    # a live worker whose wall stamp is ancient (skewed clock) still counts
    # as live because the value keeps changing
    for step in range(4):
        hb[b"w-1"] = str(123.0 + step).encode("utf8")
        b._sweep(conn)
        clock.mono += 1.0
    assert b._entries, "turn failed despite a live (renewing) worker"
    # now the heartbeat value freezes: once it stales past the liveness
    # window and the claim timeout has passed, the turn fails
    clock.mono += max(3.0 * b.cfg.heartbeat, 1.0) + b.cfg.claim + 1.0
    b._sweep(conn)
    assert b._entries == {}
    ((_, _, exc),) = b.pool.done
    assert isinstance(exc, BrokerTurnLost)
    assert "no live workers" in str(exc)


def test_idle_workers_count_lease_holders_not_leases(broker):
    b, _, conn = broker
    add_entry(b, 1), add_entry(b, 2, client=1)
    conn.hashes[b.cfg.key("hb")] = {b"w-1": b"1.0", b"w-2": b"1.0"}
    # w-1 holds a fused item of two turns; w-2 holds nothing
    conn.hashes[b.cfg.key("leases")] = {b"1": lease_value(9.0), b"2": lease_value(9.0)}
    b._sweep(conn)
    assert b.idle_workers() == 1


def test_departed_worker_state_is_dropped(broker):
    b, clock, conn = broker
    hb = conn.hashes.setdefault(b.cfg.key("hb"), {})
    hb[b"w-1"] = b"1.0"
    b._sweep(conn)
    assert b"w-1" in b._hb_seen
    del hb[b"w-1"]  # worker HDELs its stamp on clean exit
    b._sweep(conn)
    assert b._hb_seen == {}


# --------------------------------------------------------------------------
# gstate interning: the redis half of the round-decode cache
# --------------------------------------------------------------------------
def payload_dict():
    return {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}


def test_execute_interns_one_payload_per_epoch(broker):
    b, _, conn = broker
    payload = payload_dict()
    for client in range(3):
        b.execute(FakeTicket(client=client, args=(payload, 4, 4)))
    gstate = conn.hashes[b.cfg.key("gstate")]
    assert list(gstate) == [0]  # one interned entry for the shared object
    np.testing.assert_array_equal(
        serde.decode_payload(gstate[0])["w"], payload["w"]
    )
    # every turn frame carries the sentinel, not the model
    frames = turn_frames(conn, b)
    assert len(frames) == 3
    for frame in frames:
        _, _, method, args, _ = serde.decode_turn(frame)
        assert method == "local_update"
        assert args[0] == {serde.GSTATE_KEY: 0}
    assert all(e.gkey == 0 for e in b._entries.values())
    # a new epoch's payload (fresh object) gets its own entry
    b.execute(FakeTicket(client=0, args=(payload_dict(), 5, 5)))
    assert sorted(conn.hashes[b.cfg.key("gstate")]) == [0, 1]


def test_gstate_pruned_when_no_inflight_turn_references_it(broker):
    b, _, conn = broker
    b.execute(FakeTicket(client=0, args=(payload_dict(), 0, 0)))
    b._entries.clear()  # the epoch's turns all resolved
    b.execute(FakeTicket(client=1, args=(payload_dict(), 1, 1)))
    assert sorted(conn.hashes[b.cfg.key("gstate")]) == [1]
    assert sorted(b._gstate_refs) == [1]


def test_gstate_kept_while_a_requeued_turn_may_still_need_it(broker):
    b, _, conn = broker
    b.execute(FakeTicket(client=0, args=(payload_dict(), 0, 0)))  # stays in flight
    b.execute(FakeTicket(client=1, args=(payload_dict(), 1, 1)))
    assert sorted(conn.hashes[b.cfg.key("gstate")]) == [0, 1]


def test_a_batch_is_one_item_whatever_the_worker_count(broker):
    # one stacked pass on one worker beat splitting the batch among several
    b, _, conn = broker
    conn.hashes[b.cfg.key("hb")] = {b"w-1": b"1.0", b"w-2": b"1.0"}
    b._sweep(conn)
    b.execute_batch([FakeTicket(client=c, args=(payload_dict(), 4, 4)) for c in range(5)])
    (item,) = conn.lists[b.cfg.key("turns")]
    assert len(serde.unpack_frames(item)) == 5


def test_non_training_turns_bypass_interning(broker):
    b, _, conn = broker
    b.execute(FakeTicket(client=0, method="evaluate", args=(None, 8)))
    assert b.cfg.key("gstate") not in conn.hashes
    _, _, _, args, _ = serde.decode_turn(turn_frames(conn, b)[0])
    assert args == (None, 8)


# --------------------------------------------------------------------------
# results: one item per fused batch, each turn resolved at most once
# --------------------------------------------------------------------------
def test_a_results_item_resolves_each_turn_once(broker):
    b, _, conn = broker
    first, second = add_entry(b, 1, client=0), add_entry(b, 2, client=1)
    item = serde.pack_frames([serde.encode_result(t, c, {"v": t}, worker="w", batch=2)
                              for t, c in ((1, 0), (2, 1))])
    b._resolve(item)
    assert [(t, v) for t, v, _ in b.pool.done] == [(first.ticket, {"v": 1}),
                                                    (second.ticket, {"v": 2})]
    # the done marks are cleared by the collector's next pull, in the same
    # round trip as its BRPOP
    b._pull(conn)
    assert conn.pipelines[-1] == [("HDEL", b.cfg.key("done"), 1, 2),
                                  ("BRPOP", b.cfg.key("results"), 0.5)]
    # a second result for a resolved turn: dropped, never applied twice
    b._resolve(serde.pack_frames([serde.encode_result(1, 0, {"v": 1}, worker="w2")]))
    assert len(b.pool.done) == 2
    assert b.describe()["batch_sizes"] == {2: 2}
    b._pull(conn)  # nothing left to clear: the pull is the BRPOP alone
    assert conn.pipelines[-1] == [("BRPOP", b.cfg.key("results"), 0.5)]


def test_a_requeued_turn_keeps_its_done_mark(broker):
    b, _, conn = broker
    add_entry(b, 1, client=0)
    requeued = add_entry(b, 2, client=1)
    b._requeue_or_fail(conn, 2, requeued, "lease expired")
    b._resolve(serde.pack_frames([serde.encode_result(t, c, {"v": t}, worker="w", batch=2)
                                  for t, c in ((1, 0), (2, 1))]))
    assert len(b.pool.done) == 2
    b._pull(conn)
    assert conn.pipelines[-1][0] == ("HDEL", b.cfg.key("done"), 1)
