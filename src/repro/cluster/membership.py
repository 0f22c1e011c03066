"""Cluster membership: who is alive, and which clients they serve.

The coordinator owns one :class:`Membership` registry.  Nodes enter through
a join handshake (capability exchange: host, pid, slots), stay alive by
renewing their lease with heartbeats, and exit either gracefully (leave) or
by eviction once they have been silent for longer than the lease — the one
rule of :mod:`repro.runtime.liveness`, judged on ``Member.last_heartbeat``
(set by a join as by a heartbeat).

Logical clients (data-shard indices) are *pinned* to members: once the
minimum quorum joins, every client is assigned round-robin over the joined
members (ordered by join time, so the assignment is reproducible given the
same join order), and a client's state lives on its member for the rest of
the run — no snapshot shipping, which is what keeps per-client FIFO trivial
over a network.  When a member dies its clients become *orphans*: they drop
out of the live set (selection stops picking them) until a new member joins
and adopts them, restarting those clients from the published baseline.

Everything here is synchronized on one lock and does no I/O; the
coordinator calls in from its transport handler and sweep threads.  State
transitions invoke the optional ``events`` hook (joined/left/evicted/
adopted) and update bound telemetry instruments, so liveness is visible on
the ops endpoint the moment it changes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.runtime.liveness import silent
from repro.utils.logging import get_logger

__all__ = ["Member", "Membership"]

_LOG = get_logger("cluster.membership")

#: member lifecycle states
ALIVE = "alive"
LEFT = "left"
EVICTED = "evicted"


@dataclass
class Member:
    """One joined node process."""

    node_id: str
    caps: Dict[str, Any] = field(default_factory=dict)
    state: str = ALIVE
    joined_at: float = 0.0
    last_heartbeat: float = 0.0
    heartbeats: int = 0
    clients: List[int] = field(default_factory=list)

    @property
    def alive(self) -> bool:
        return self.state == ALIVE


class Membership:
    """Join/heartbeat/leave/evict registry with client pinning."""

    def __init__(
        self,
        num_clients: int,
        lease: float,
        *,
        clock: Callable[[], float] = time.monotonic,
        events: Optional[Callable[[str, Member], None]] = None,
    ) -> None:
        self.num_clients = int(num_clients)
        self.lease = float(lease)
        self._clock = clock
        self._events = events
        self._lock = threading.RLock()
        self._members: Dict[str, Member] = {}
        self._owner: Dict[int, str] = {}  # client -> node_id
        self._unassigned: List[int] = list(range(self.num_clients))
        self._assigned_once = False
        # telemetry instruments, bound lazily via bind_registry
        self._gauge_members: Optional[Dict[str, Any]] = None
        self._gauge_live_clients: Any = None
        self._ctr_joins: Any = None
        self._ctr_evictions: Any = None
        self._ctr_leaves: Any = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def join(self, node_id: str, caps: Optional[Dict[str, Any]] = None) -> Member:
        """Admit (or re-admit) a node; adopts orphans after initial assignment."""
        now = self._clock()
        with self._lock:
            existing = self._members.get(node_id)
            if existing is not None and existing.alive:
                # idempotent re-join (a node retrying its handshake)
                existing.caps.update(caps or {})
                existing.last_heartbeat = now
                return existing
            member = Member(
                node_id=node_id, caps=dict(caps or {}),
                joined_at=now, last_heartbeat=now,
            )
            self._members[node_id] = member
            if self._assigned_once and self._unassigned:
                self._adopt(member)
            self._fire("joined", member)
            if self._ctr_joins is not None:
                self._ctr_joins.inc()
            self._sample_gauges()
            _LOG.info("member %s joined (%d alive)", node_id, len(self.alive_members()))
            return member

    def heartbeat(self, node_id: str) -> bool:
        """Record one heartbeat; returns False for unknown/dead members
        (the node should re-join or exit)."""
        now = self._clock()
        with self._lock:
            member = self._members.get(node_id)
            if member is None or not member.alive:
                return False
            member.last_heartbeat = now
            member.heartbeats += 1
            return True

    def leave(self, node_id: str) -> List[int]:
        """Graceful exit; returns the orphaned client ids."""
        with self._lock:
            member = self._members.get(node_id)
            if member is None or not member.alive:
                return []
            member.state = LEFT
            orphans = self._orphan(member)
            self._fire("left", member)
            if self._ctr_leaves is not None:
                self._ctr_leaves.inc()
            self._sample_gauges()
            _LOG.info("member %s left; orphaned clients %s", node_id, orphans)
            return orphans

    def sweep(self) -> List[Member]:
        """Evict every member silent for longer than the lease."""
        now = self._clock()
        evicted: List[Member] = []
        with self._lock:
            for member in self._members.values():
                if member.alive and silent(member.last_heartbeat, now, self.lease):
                    member.state = EVICTED
                    self._orphan(member)
                    evicted.append(member)
            for member in evicted:
                self._fire("evicted", member)
                if self._ctr_evictions is not None:
                    self._ctr_evictions.inc()
            if evicted:
                self._sample_gauges()
        for member in evicted:
            _LOG.warning(
                "member %s evicted after %.1fs of silence; clients re-orphaned",
                member.node_id, now - member.last_heartbeat,
            )
        return evicted

    # ------------------------------------------------------------------
    # client pinning
    # ------------------------------------------------------------------
    def assign_initial(self) -> None:
        """Round-robin every unassigned client over the alive members,
        ordered by join time (called once the joining quorum is reached)."""
        with self._lock:
            members = self.alive_members()
            if not members:
                raise RuntimeError("cannot assign clients: no alive members")
            for i, client in enumerate(list(self._unassigned)):
                self._pin(client, members[i % len(members)])
            self._unassigned.clear()
            self._assigned_once = True
            self._sample_gauges()

    def _adopt(self, member: Member) -> None:
        """A post-quorum joiner takes every orphaned client (locked)."""
        adopted = list(self._unassigned)
        for client in adopted:
            self._pin(client, member)
        self._unassigned.clear()
        if adopted:
            self._fire("adopted", member)
            _LOG.info("member %s adopted orphaned clients %s", member.node_id, adopted)

    def _pin(self, client: int, member: Member) -> None:
        self._owner[client] = member.node_id
        member.clients.append(client)
        member.clients.sort()

    def _orphan(self, member: Member) -> List[int]:
        orphans = list(member.clients)
        member.clients.clear()
        for client in orphans:
            self._owner.pop(client, None)
        self._unassigned.extend(orphans)
        self._unassigned.sort()
        return orphans

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def alive_members(self) -> List[Member]:
        with self._lock:
            members = [m for m in self._members.values() if m.alive]
            members.sort(key=lambda m: (m.joined_at, m.node_id))
            return members

    def get(self, node_id: str) -> Optional[Member]:
        with self._lock:
            return self._members.get(node_id)

    def owner_of(self, client: int) -> Optional[Member]:
        with self._lock:
            node_id = self._owner.get(int(client))
            member = self._members.get(node_id) if node_id is not None else None
            return member if member is not None and member.alive else None

    def live_clients(self) -> List[int]:
        """Sorted clients currently pinned to an alive member."""
        with self._lock:
            return sorted(
                c for c, nid in self._owner.items()
                if (m := self._members.get(nid)) is not None and m.alive
            )

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {ALIVE: 0, LEFT: 0, EVICTED: 0}
            for member in self._members.values():
                out[member.state] = out.get(member.state, 0) + 1
            return out

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-safe membership table (for status endpoints/logs)."""
        with self._lock:
            now = self._clock()
            return [
                {
                    "node_id": m.node_id,
                    "state": m.state,
                    "clients": list(m.clients),
                    "heartbeats": m.heartbeats,
                    "age_seconds": round(now - m.joined_at, 3),
                    # silence as a fraction of the lease: 1 is the eviction line
                    "suspicion": round((now - m.last_heartbeat) / self.lease, 3)
                    if m.alive else None,
                    "caps": dict(m.caps),
                }
                for m in self._members.values()
            ]

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def bind_registry(self, registry: Any) -> None:
        """Attach Prometheus-style instruments from a telemetry registry."""
        with self._lock:
            self._gauge_members = {
                state: registry.gauge(
                    "repro_cluster_members",
                    "Cluster members by lifecycle state", state=state,
                )
                for state in (ALIVE, LEFT, EVICTED)
            }
            self._gauge_live_clients = registry.gauge(
                "repro_cluster_live_clients",
                "Logical clients currently served by an alive member",
            )
            self._ctr_joins = registry.counter(
                "repro_cluster_joins_total", "Join handshakes accepted"
            )
            self._ctr_evictions = registry.counter(
                "repro_cluster_evictions_total",
                "Members evicted after a lease of silence",
            )
            self._ctr_leaves = registry.counter(
                "repro_cluster_leaves_total", "Graceful member departures"
            )
            # backfill events that happened before telemetry attached (the
            # quorum joins land before the engine fires on_setup)
            counts = self.counts()
            if self._members:
                self._ctr_joins.inc(len(self._members))
            if counts[EVICTED]:
                self._ctr_evictions.inc(counts[EVICTED])
            if counts[LEFT]:
                self._ctr_leaves.inc(counts[LEFT])
            self._sample_gauges()

    def _sample_gauges(self) -> None:
        if self._gauge_members is None:
            return
        for state, count in self.counts().items():
            gauge = self._gauge_members.get(state)
            if gauge is not None:
                gauge.set(count)
        self._gauge_live_clients.set(len(self.live_clients()))

    def _fire(self, event: str, member: Member) -> None:
        if self._events is None:
            return
        try:
            self._events(event, member)
        except Exception:  # noqa: BLE001 - observers never break membership
            _LOG.exception("membership event hook failed for %s(%s)", event, member.node_id)
