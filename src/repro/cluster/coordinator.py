"""The ``tcp://`` / ``inproc://`` broker: turns served by live cluster members.

Runs inside the engine process, behind the
:class:`~repro.runtime.pool.ClientPool` like every other broker.  Hosts one
:class:`~repro.comm.transport.ServerTransport` (TCP for real deployments,
in-proc for tests), a :class:`~repro.cluster.membership.Membership`
registry fed by the join/heartbeat/leave ops, a per-member work queue of
pre-encoded turn frames, and a sweep thread that evicts every member silent
for longer than the lease — failing the evicted member's queued and
in-flight turns with :class:`~repro.runtime.broker.PeerLostError` so the
scheduler maps them onto its dropped-dispatch path instead of stalling.
Members are ``python -m repro worker tcp://host:port`` processes (see
:mod:`repro.cluster.link`); clients are *pinned* to them, so client state
never crosses the wire.

The listen address binds when the pool attaches the broker — members may
dial before the run starts — and :meth:`ClusterCoordinator.start` is where
the run waits for its joining quorum.  URL parameters are documented in
:mod:`repro.cluster.protocol`.

Lock order: the pool calls ``capacity_free``/``execute`` under *its* lock
and ``pool.turn_done`` takes that lock, so this broker never completes a
ticket while holding its own lock (tickets are collected under it and
completed after release) and never from inside ``execute`` (a turn with no
live owner is parked for the sweep thread to fail).

Protocol handling is synchronous per connection (the transport runs one
thread per connection), so a member's ``poll`` may long-wait on the work
condition without blocking other members.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.cluster.membership import Membership
from repro.cluster.protocol import (
    ProtocolError,
    decode_control,
    encode_control,
    parse_cluster_url,
    peek_kind,
)
from repro.comm.transport import make_server_transport
from repro.engine.client_state import ClientStateStore
from repro.runtime import serde
from repro.runtime.broker import MAX_INFLIGHT, PeerLostError, TurnBroker, register_broker
from repro.utils.logging import get_logger

__all__ = ["ClusterCoordinator"]

_LOG = get_logger("cluster.coordinator")


@register_broker("inproc")
@register_broker("tcp")
class ClusterCoordinator(TurnBroker):
    """Membership + turn dispatch for one live run."""

    distributed = True
    live = True

    def __init__(self, url: str, *, spec: Any, num_clients: int, **_: Any) -> None:
        super().__init__(url)
        self.cfg = cfg = parse_cluster_url(url)
        self.scheme = cfg.kind
        self.spec_yaml = spec.to_yaml()  # handed to every member at join
        self.num_clients = int(num_clients)
        self.membership = Membership(self.num_clients, cfg.lease)
        # client state lives on the members; nothing is held on this side
        self.store = ClientStateStore()
        self._server = make_server_transport(cfg.kind, cfg.address)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        # node_id -> queue of (turn_id, frame); turn_id -> ticket; in-flight
        # turn_id -> node_id (polled, result not yet posted); turn ids that
        # found no live owner at dispatch, for the sweep thread to fail
        self._queues: Dict[str, Deque[Tuple[int, bytes]]] = {}
        self._tickets: Dict[int, Any] = {}
        self._in_flight: Dict[int, str] = {}
        self._ownerless: List[int] = []
        self._turn_seq = 0
        self._stopping = threading.Event()
        self._sweep_now = threading.Event()
        self._sweeper: Optional[threading.Thread] = None
        self._quorum = False
        self._closed = False

    @classmethod
    def check_url(cls, url: str) -> None:
        parse_cluster_url(url)

    @classmethod
    def worker_link(cls, url: str, worker_id: str):
        from repro.cluster.link import ClusterLink

        return ClusterLink(url, worker_id)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, pool) -> None:
        """Bind the transport and start the eviction sweep."""
        super().attach(pool)
        self._server.start(self._handle)
        self.url = f"{self.cfg.kind}://{self._server.address}"  # ephemeral port resolved
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name="cluster-sweep", daemon=True
        )
        self._sweeper.start()
        _LOG.info(
            "live broker listening on %s (quorum %d, lease %.1fs): join with "
            "`python -m repro worker %s`",
            self.url, self.cfg.min_nodes, self.cfg.lease, self.url,
        )

    def start(self) -> None:
        """Block until ``min_nodes`` members joined, then pin clients."""
        if self._quorum:
            return
        deadline = time.monotonic() + self.cfg.join_timeout
        while len(self.membership.alive_members()) < self.cfg.min_nodes:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"cluster quorum not reached: {len(self.membership.alive_members())}"
                    f"/{self.cfg.min_nodes} workers joined within "
                    f"{self.cfg.join_timeout:.1f}s "
                    f"(workers dial in with `python -m repro worker {self.url}`)"
                )
            time.sleep(0.02)
        self.membership.assign_initial()
        self._quorum = True
        _LOG.info(
            "cluster quorum reached: %d member(s), %d clients pinned",
            len(self.membership.alive_members()), self.num_clients,
        )

    def shutdown(self) -> None:
        """Broadcast stop, give members a grace window to leave, tear down."""
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        self._sweep_now.set()
        with self._work:
            self._work.notify_all()
        deadline = time.monotonic() + min(2.0, 4 * self.cfg.heartbeat)
        while time.monotonic() < deadline:
            if not self.membership.alive_members():
                break
            time.sleep(0.02)
        self._server.stop()
        if self._sweeper is not None:
            self._sweeper.join(timeout=2.0)
        # anything still pending can never complete
        with self._lock:
            pending = list(self._tickets)
        self._fail(pending, "coordinator shut down")

    # ------------------------------------------------------------------
    # dispatch (called under the pool lock)
    # ------------------------------------------------------------------
    @property
    def pool_size(self) -> int:
        return max(len(self.membership.alive_members()), self.cfg.min_nodes)

    def capacity_free(self) -> bool:
        with self._lock:
            return len(self._tickets) < MAX_INFLIGHT

    def execute(self, ticket) -> None:
        """Encode one turn and queue it on the client's owning member."""
        self._turn_seq += 1
        turn_id = self._turn_seq
        frame = serde.encode_turn(
            turn_id, ticket.client, ticket.method, ticket.args, ticket.kwargs
        )
        with self._work:
            self._tickets[turn_id] = ticket
            # looked up under the queue lock, where eviction drains queues:
            # a turn can never land on a queue nobody will drain
            member = self.membership.owner_of(ticket.client)
            if member is None:
                self._ownerless.append(turn_id)
                self._sweep_now.set()
            else:
                self._queues.setdefault(member.node_id, deque()).append((turn_id, frame))
                self._work.notify_all()

    def live_clients(self) -> List[int]:
        return self.membership.live_clients()

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._tickets)

    def idle_workers(self) -> int:
        with self._lock:
            busy = len(set(self._in_flight.values()))
        return max(0, len(self.membership.alive_members()) - busy)

    # ------------------------------------------------------------------
    # protocol handler (runs on transport connection threads)
    # ------------------------------------------------------------------
    def _handle(self, frame: bytes) -> bytes:
        kind = peek_kind(frame)
        if kind in ("response", "error"):
            return self._handle_result(frame)
        op, meta = decode_control(frame)
        if op == "join":
            return self._handle_join(meta)
        if op == "heartbeat":
            return self._handle_heartbeat(meta)
        if op == "poll":
            return self._handle_poll(meta)
        if op == "leave":
            return self._handle_leave(meta)
        if op == "status":
            return encode_control(
                "reply", ok=True, members=self.membership.describe(),
                pending=self.queue_depth(), stop=self._stopping.is_set(),
            )
        raise ProtocolError(f"unknown cluster op {op!r}")

    def _handle_join(self, meta: Dict[str, Any]) -> bytes:
        node_id = str(meta.get("node_id") or "")
        if not node_id:
            return encode_control("reply", ok=False, error="join needs a node_id")
        if self._stopping.is_set():
            return encode_control("reply", ok=False, error="run is stopping", stop=True)
        member = self.membership.join(node_id, dict(meta.get("caps") or {}))
        return encode_control(
            "reply", ok=True, node_id=member.node_id,
            num_clients=self.num_clients, heartbeat=self.cfg.heartbeat,
            lease=self.cfg.lease, spec=self.spec_yaml, clients=list(member.clients),
        )

    def _handle_heartbeat(self, meta: Dict[str, Any]) -> bytes:
        node_id = str(meta.get("node_id") or "")
        ok = self.membership.heartbeat(node_id)
        return encode_control("reply", ok=ok, stop=self._stopping.is_set())

    def _handle_poll(self, meta: Dict[str, Any]) -> bytes:
        node_id = str(meta.get("node_id") or "")
        wait = min(float(meta.get("wait", 0.5)), 30.0)
        member = self.membership.get(node_id)
        if member is None or not member.alive:
            return encode_control("reply", ok=False, empty=True,
                                  stop=self._stopping.is_set())
        deadline = time.monotonic() + wait
        with self._work:
            while True:
                if self._stopping.is_set():
                    # turns still queued have no consumer left; shutdown fails them
                    return encode_control("reply", ok=True, empty=True, stop=True)
                queue = self._queues.get(node_id)
                if queue:
                    turn_id, frame = queue.popleft()
                    self._in_flight[turn_id] = node_id
                    return frame
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return encode_control("reply", ok=True, empty=True, stop=False)
                self._work.wait(remaining)

    def _handle_leave(self, meta: Dict[str, Any]) -> bytes:
        node_id = str(meta.get("node_id") or "")
        orphans = self.membership.leave(node_id)
        self._drop_member_turns(node_id, f"member {node_id} left the cluster")
        return encode_control("reply", ok=True, orphans=orphans)

    def _handle_result(self, frame: bytes) -> bytes:
        result = serde.decode_result(frame)
        turn_id = result["turn"]
        with self._lock:
            ticket = self._tickets.pop(turn_id, None)
            self._in_flight.pop(turn_id, None)
        if ticket is None:
            # duplicate or a turn already failed by eviction — drop it
            return encode_control("reply", ok=True, duplicate=True)
        self.pool.turn_done(*self.outcome(ticket, result))
        return encode_control("reply", ok=True)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _sweep_loop(self) -> None:
        period = max(0.05, min(self.cfg.heartbeat, self.cfg.lease / 4.0))
        while not self._stopping.is_set():
            self._sweep_now.wait(period)  # early when execute() parked a turn
            self._sweep_now.clear()
            with self._lock:
                ownerless, self._ownerless = self._ownerless, []
            self._fail(ownerless, "client has no live member")
            for member in self.membership.sweep():
                self._drop_member_turns(
                    member.node_id,
                    f"member {member.node_id} evicted after {self.cfg.lease:.1f}s of silence",
                )

    def _drop_member_turns(self, node_id: str, reason: str) -> None:
        with self._work:
            doomed = [tid for tid, _ in self._queues.pop(node_id, ())]
            doomed.extend(
                tid for tid, owner in self._in_flight.items() if owner == node_id
            )
            self._work.notify_all()
        self._fail(doomed, reason)

    def _fail(self, turn_ids: Iterable[int], reason: str) -> None:
        """Complete turns as lost peers — after releasing the broker lock
        (see the module docstring's lock order)."""
        with self._lock:
            doomed = []
            for tid in turn_ids:
                self._in_flight.pop(tid, None)
                ticket = self._tickets.pop(tid, None)
                if ticket is not None:
                    doomed.append((tid, ticket))
        for tid, ticket in doomed:
            self.pool.turn_done(ticket, None, PeerLostError(
                f"turn {tid} (client {ticket.client}) lost: {reason}"
            ))
