"""Membership registry: join/heartbeat/leave/evict and client pinning."""

import pytest

from repro.cluster.membership import Membership
from repro.telemetry.registry import MetricsRegistry


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = float(start)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock()


def make_membership(num_clients=6, lease=2.0, clock=None, events=None):
    clock = clock or FakeClock()
    return Membership(num_clients, lease, clock=clock, events=events), clock


# ------------------------------------------------------------ join
def test_join_and_counts():
    m, _ = make_membership()
    m.join("a")
    m.join("b")
    assert m.counts() == {"alive": 2, "left": 0, "evicted": 0}
    assert [mem.node_id for mem in m.alive_members()] == ["a", "b"]


def test_join_is_idempotent():
    m, _ = make_membership()
    first = m.join("a", {"host": "h1"})
    again = m.join("a", {"slots": 2})
    assert again is first
    assert first.caps == {"host": "h1", "slots": 2}
    assert m.counts()["alive"] == 1


def test_join_records_capabilities():
    m, _ = make_membership()
    member = m.join("a", {"host": "box", "pid": 42})
    assert member.caps["host"] == "box"
    assert member.caps["pid"] == 42


# ------------------------------------------------------------ pinning
def test_assign_initial_round_robin_by_join_order():
    m, clock = make_membership(num_clients=5)
    m.join("a")
    clock.advance(0.1)
    m.join("b")
    m.assign_initial()
    assert m.get("a").clients == [0, 2, 4]
    assert m.get("b").clients == [1, 3]
    assert m.live_clients() == [0, 1, 2, 3, 4]
    assert m.owner_of(2).node_id == "a"
    assert m.owner_of(3).node_id == "b"


def test_assign_initial_requires_members():
    m, _ = make_membership()
    with pytest.raises(RuntimeError, match="no alive members"):
        m.assign_initial()


def test_late_joiner_adopts_orphans():
    m, clock = make_membership(num_clients=4)
    m.join("a")
    clock.advance(0.1)
    m.join("b")
    m.assign_initial()
    orphans = m.leave("b")
    assert orphans == [1, 3]
    assert m.live_clients() == [0, 2]
    # a post-quorum joiner takes everything unassigned
    m.join("c")
    assert m.get("c").clients == [1, 3]
    assert m.live_clients() == [0, 1, 2, 3]
    assert m.owner_of(1).node_id == "c"


def test_pre_quorum_joiner_does_not_adopt():
    m, _ = make_membership(num_clients=4)
    m.join("a")
    # before assign_initial, joiners get nothing: pinning happens at quorum
    assert m.get("a").clients == []


# ------------------------------------------------------------ heartbeat/leave
def test_heartbeat_known_vs_unknown():
    m, _ = make_membership()
    m.join("a")
    assert m.heartbeat("a")
    assert not m.heartbeat("ghost")


def test_heartbeat_after_leave_rejected():
    m, _ = make_membership()
    m.join("a")
    m.leave("a")
    assert not m.heartbeat("a")


def test_leave_unknown_member_is_noop():
    m, _ = make_membership()
    assert m.leave("ghost") == []


# ------------------------------------------------------------ eviction
def test_sweep_evicts_silent_member():
    m, clock = make_membership(num_clients=4, lease=1.0)
    m.join("a")
    m.join("b")
    m.assign_initial()
    clock.advance(0.5)
    m.heartbeat("b")  # only b renews
    clock.advance(0.7)  # a is now 1.2s silent, b 0.7s
    evicted = m.sweep()
    assert [e.node_id for e in evicted] == ["a"]
    assert m.counts() == {"alive": 1, "left": 0, "evicted": 1}
    assert m.live_clients() == m.get("b").clients
    assert m.owner_of(0) is None or m.owner_of(0).node_id == "b"


def test_sweep_noop_when_everyone_beats():
    m, clock = make_membership(lease=1.0)
    m.join("a")
    clock.advance(0.5)
    m.heartbeat("a")
    clock.advance(0.5)
    assert m.sweep() == []


def test_rejoin_renews_the_lease():
    # a live member retrying its handshake is heard from: the sweep must
    # judge its silence from the re-join, not from the first join
    m, clock = make_membership(num_clients=2, lease=3.0)
    m.join("a")
    m.assign_initial()
    clock.advance(2.5)
    m.join("a")
    clock.advance(0.6)
    assert m.sweep() == []
    assert m.get("a").alive and m.live_clients() == [0, 1]
    assert m.describe()[0]["suspicion"] == pytest.approx(0.2)


def test_evicted_member_can_rejoin_and_adopt():
    m, clock = make_membership(num_clients=2, lease=0.5)
    m.join("a")
    m.assign_initial()
    clock.advance(1.0)
    assert [e.node_id for e in m.sweep()] == ["a"]
    assert m.live_clients() == []
    member = m.join("a")  # the process restarted
    assert member.alive
    assert member.clients == [0, 1]  # adopted its own orphans
    assert m.live_clients() == [0, 1]


# ------------------------------------------------------------ events + telemetry
def test_event_hook_sees_lifecycle():
    seen = []
    m, clock = make_membership(
        num_clients=2, lease=0.5, events=lambda ev, mem: seen.append((ev, mem.node_id))
    )
    m.join("a")
    m.assign_initial()
    clock.advance(1.0)
    m.sweep()
    m.join("b")
    m.leave("b")
    assert ("joined", "a") in seen
    assert ("evicted", "a") in seen
    assert ("adopted", "b") in seen
    assert ("left", "b") in seen


def test_event_hook_errors_do_not_break_membership():
    def boom(event, member):
        raise RuntimeError("observer bug")

    m, _ = make_membership(events=boom)
    member = m.join("a")
    assert member.alive


def test_bind_registry_exports_gauges_and_counters():
    registry = MetricsRegistry()
    m, clock = make_membership(num_clients=3, lease=0.5)
    m.bind_registry(registry)
    m.join("a")
    m.join("b")
    m.assign_initial()
    clock.advance(1.0)
    m.heartbeat("b")
    clock.advance(0.0)
    m.sweep()  # nobody dead yet (b renewed; a is 1.0s silent > 0.5 lease)
    text = registry.exposition()
    assert 'repro_cluster_members{state="alive"} 1' in text
    assert 'repro_cluster_members{state="evicted"} 1' in text
    assert "repro_cluster_joins_total 2" in text
    assert "repro_cluster_evictions_total 1" in text
    # only b's pinned clients remain live
    assert "repro_cluster_live_clients" in text


def test_suspicion_is_silence_over_lease():
    m, clock = make_membership(lease=4.0)
    m.join("a")
    clock.advance(2.0)
    assert m.describe()[0]["suspicion"] == pytest.approx(0.5)
    clock.advance(6.0)
    assert m.describe()[0]["suspicion"] == pytest.approx(2.0)
    m.sweep()
    assert m.describe()[0]["suspicion"] is None  # only the alive are judged


def test_a_member_that_left_is_never_evicted():
    m, clock = make_membership(lease=1.0)
    m.join("a")
    m.leave("a")
    clock.advance(100.0)
    assert m.sweep() == []
    assert m.counts() == {"alive": 0, "left": 1, "evicted": 0}


def test_an_evicted_member_is_evicted_once():
    m, clock = make_membership(lease=1.0)
    m.join("a")
    clock.advance(2.0)
    assert [e.node_id for e in m.sweep()] == ["a"]
    clock.advance(2.0)
    assert m.sweep() == []
    assert m.counts()["evicted"] == 1


def test_describe_is_json_safe():
    import json

    m, _ = make_membership()
    m.join("a", {"host": "h"})
    m.assign_initial()
    table = m.describe()
    json.dumps(table)  # must not raise
    assert table[0]["node_id"] == "a"
    assert table[0]["state"] == "alive"
    assert table[0]["suspicion"] is not None
