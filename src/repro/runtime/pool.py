"""The client pool: scheduling policy for pooled logical clients.

``num_clients`` logical clients share a bounded set of execution slots
provided by a :class:`~repro.runtime.broker.TurnBroker` (the caller's own
thread for ``memory://``, worker processes for ``redis://``, live cluster
members for ``tcp://``).  The pool owns everything transport-independent:

1. **per-client FIFO** — all submissions for one client run in submission
   order (exactly what a dedicated actor's mailbox guarantees), so pooled
   and dedicated runs are bit-identical regardless of broker;
2. **bounded results** — at most ``window`` turns are started-but-unconsumed
   at a time, so completed model states never pile up cohort-deep while the
   virtual-time queue waits on a late arrival.  A consumer blocking on a
   specific ticket *demands* it past the window (and past FIFO order for
   other clients), which makes the bound deadlock-free.

The broker owns dispatch: ``capacity_free()`` gates the pump and
``execute(ticket)`` moves a turn onto the substrate; completions come back
through :meth:`ClientPool.turn_done`.  The broker also says which turns it
can fuse (``fusable(ticket)``): those wait until somebody needs one, then
every startable one goes out together through ``execute_batch``.  Entry
points that may start a turn call ``broker.run_dispatched()`` after
releasing the lock; ``memory://`` runs its recorded turns there.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Set

import numpy as np

from repro.runtime.base import ClientRuntime
from repro.runtime.broker import PeerLostError
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.broker import TurnBroker

__all__ = ["ClientPool", "PoolTicket"]

_LOG = get_logger("pool")


class PoolTicket:
    """Future-like handle for one pooled client turn.

    Satisfies the surface the event queue uses (``result``/``exception``/
    ``done``); ``result`` additionally *demands* the ticket, telling the pool
    a consumer is blocked on it so it may jump the admission window.  On
    ``memory://`` the turn runs on the waiting thread before the wait, so
    ``timeout`` cannot interrupt it; it bounds only the wait that follows.
    """

    def __init__(self, pool: "ClientPool", seq: int, client: int, method: str,
                 args: tuple, kwargs: dict, needs_data: bool) -> None:
        self._pool = pool
        self.seq = seq
        self.client = int(client)
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.needs_data = needs_data
        #: the broker's verdict (:meth:`TurnBroker.fusable`), set on submit
        self.fusable = False
        self.demanded = False
        self.started = False
        self._event = threading.Event()
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        self._consumed = False
        self._abandoned = False

    def done(self) -> bool:
        return self._event.is_set()

    def _wait(self, timeout: Optional[float]) -> None:
        self._pool._demand(self)
        if not self._event.wait(timeout):
            # hand the admission slot back before giving up: a waiter that
            # never returns would otherwise leave this turn permanently
            # unconsumed, shrinking the window until the pump wedges
            self._pool._abandon(self)
            raise TimeoutError(
                f"pooled turn ({self.method} for client {self.client}) "
                f"still pending after {timeout}s"
            )
        self._pool._consume(self)

    def result(self, timeout: Optional[float] = None) -> Any:
        self._wait(timeout)
        if self._exc is not None:
            raise self._exc
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        self._wait(timeout)
        return self._exc

    def __repr__(self) -> str:
        state = "done" if self.done() else ("running" if self.started else "queued")
        return f"PoolTicket(client={self.client}, method={self.method!r}, {state})"


class ClientPool(ClientRuntime):
    """``num_clients`` logical clients scheduled onto a turn broker.

    *Drain.*  A turn still in flight when a run ends is trained and its
    client's loader stream advanced, never cancelled (the scheduler's
    ``drain`` waits each one out).  Which turns are still queued at that
    moment is thread timing, and a dedicated actor always runs its turn, so
    dropping one would make pooled records differ from dedicated ones, and
    from run to run.
    """

    pooled = True

    #: methods whose turn needs the client's training data view mounted
    _DATA_METHODS = ("local_update", "run_round")

    def __init__(
        self,
        num_clients: int,
        broker: "TurnBroker",
        data_provider,
        window: Optional[int] = None,
    ) -> None:
        self.num_clients = int(num_clients)
        self.broker = broker
        self._data = data_provider
        self._lock = threading.Lock()
        # per-client FIFO queues plus two "ready lanes" of client ids:
        # clients whose head turn is demanded (may jump the window) and
        # clients admissible under the window.  Dispatch pops lanes instead
        # of scanning a global queue, so a 100k-client cohort pays O(1)
        # per scheduling decision rather than O(pending)
        self._queues: Dict[int, Deque[PoolTicket]] = {}
        self._ready: Deque[int] = deque()
        self._ready_set: Set[int] = set()
        self._demand_ready: Deque[int] = deque()
        self._demand_set: Set[int] = set()
        self._n_pending = 0
        self._busy_clients: Set[int] = set()
        self._seq = itertools.count()
        # started-but-unconsumed turns admitted without demand: bounds how
        # many decoded results can pile up while the event queue waits
        # (None: the broker's default, asked once it has started)
        self._window = int(window) if window is not None else None
        self._unconsumed = 0
        self._stopped = False
        self._started = False
        self.turns_run = 0
        broker.attach(self)

    # ------------------------------------------------------------------
    @property
    def pool_size(self) -> int:
        return self.broker.pool_size

    @property
    def store(self):
        """The client-state store (possibly sharded behind the broker)."""
        return self.broker.store

    @property
    def live(self) -> bool:
        return self.broker.live

    def client_ids(self) -> List[int]:
        return list(range(self.num_clients))

    def live_clients(self) -> Optional[List[int]]:
        return self.broker.live_clients()

    def start(self) -> None:
        """Bring up the broker substrate (idempotent)."""
        if not self._started:
            self.broker.start()
            if self._window is None:
                self._window = self.broker.default_window()
            self._started = True

    def data_view(self, ticket: PoolTicket):
        """The client's training-data view, for brokers that mount data
        locally (``memory://``); remote workers rebuild views themselves."""
        return self._data.view(ticket.client) if ticket.needs_data else None

    # ------------------------------------------------------------------
    def submit(self, client: int, method: str, *args: Any, **kwargs: Any) -> PoolTicket:
        if not self._started:
            self.start()
        with self._lock:
            if self._stopped:
                raise RuntimeError("client pool has been stopped")
            ticket = PoolTicket(
                self, next(self._seq), client, method, args, kwargs,
                needs_data=method in self._DATA_METHODS,
            )
            queue = self._queues.get(ticket.client)
            if queue is None:
                queue = self._queues[ticket.client] = deque()
            ticket.fusable = self.broker.fusable(ticket)
            queue.append(ticket)
            self._n_pending += 1
            if len(queue) == 1 and ticket.client not in self._busy_clients:
                self._mark_ready_locked(ticket.client)
            self._pump_locked()
        self.broker.run_dispatched()
        return ticket

    def pending_turns(self) -> int:
        """Turns submitted but not yet handed to the broker (telemetry)."""
        with self._lock:
            return self._n_pending

    def evaluate_all(self, max_batches: Optional[int] = None,
                     timeout: Optional[float] = None) -> tuple:
        """Personalized evaluation over every logical client: mean (loss,
        accuracy) of each client's own model on the shared test set.  On a
        live broker "every client" is the clients a live member serves, and
        a member dying mid-sweep costs only its own clients.

        ``timeout`` bounds the wait *per ticket* (default ``None``: wait
        indefinitely — a large cohort on a remote broker, or one cold
        worker, legitimately takes longer than any fixed guess)."""
        live = self.live_clients()
        clients = self.client_ids() if live is None else live
        if not clients:
            raise RuntimeError(
                "no live cluster members to evaluate on — every worker left "
                "or was evicted"
            )
        tickets = [self.submit(c, "evaluate", None, max_batches) for c in clients]
        # demand in submission order up front so the whole evaluation sweep
        # may jump the admission window in a deterministic order instead of
        # serializing demand behind each blocking result() in turn
        for t in tickets:
            self._demand(t)
        results = []
        for t in tickets:
            try:
                results.append(t.result(timeout))
            except PeerLostError:  # only live brokers raise it
                _LOG.warning("evaluation turn for client %d lost to peer failure", t.client)
        if not results:
            raise RuntimeError("every evaluation turn was lost to peer failures")
        losses = [r[0] for r in results]
        accs = [r[1] for r in results]
        return float(np.mean(losses)), float(np.mean(accs))

    def stop(self) -> None:
        """Fail everything still queued; started turns finish (here, on
        ``memory://``)."""
        with self._lock:
            self._stopped = True
            pending = [t for q in self._queues.values() for t in q]
            self._queues.clear()
            self._ready.clear()
            self._ready_set.clear()
            self._demand_ready.clear()
            self._demand_set.clear()
            self._n_pending = 0
        for ticket in pending:
            ticket._exc = RuntimeError("client pool stopped with turns still queued")
            ticket._event.set()
        self.broker.run_dispatched()

    def shutdown(self) -> None:
        """Stop the queue and tear the broker (and its workers) down."""
        self.stop()
        self.broker.shutdown()

    # ------------------------------------------------------------------
    # broker callback
    # ------------------------------------------------------------------
    def turn_done(
        self,
        ticket: PoolTicket,
        result: Any,
        exc: Optional[BaseException],
        release: Optional[Any] = None,
    ) -> None:
        """A broker finished (or failed) a started turn.

        ``release`` runs under the pool lock *before* the pump so the
        broker can return capacity (e.g. a freed worker slot) atomically
        with the client becoming schedulable again.
        """
        self.turns_done_batch([(ticket, result, exc)], release)

    def turns_done_batch(self, outcomes: Any, release: Optional[Any] = None) -> None:
        """Report several finished turns under one lock acquisition.

        ``outcomes`` is ``[(ticket, result, exc), ...]``.  Semantics match
        per-ticket :meth:`turn_done` calls, but a fused batch of K turns
        pays one lock/pump cycle instead of K, and returns its substrate
        slot once (``release``)."""
        for ticket, result, exc in outcomes:
            if exc is not None:
                ticket._exc = exc
            else:
                ticket._result = result
        with self._lock:
            for ticket, _, _ in outcomes:
                self.turns_run += 1
                self._busy_clients.discard(ticket.client)
                if ticket.client in self._queues:
                    self._mark_ready_locked(ticket.client)
                if ticket._abandoned and not ticket._consumed:
                    # the waiter timed out and may never come back for the
                    # result: return the admission slot here instead
                    ticket._consumed = True
                    self._unconsumed -= 1
            if release is not None:
                release()
            self._pump_locked()
        for ticket, _, _ in outcomes:
            ticket._event.set()

    # ------------------------------------------------------------------
    # internals (all under self._lock unless noted)
    # ------------------------------------------------------------------
    def _mark_ready_locked(self, client: int) -> None:
        """Place a schedulable client (pending turns, not busy) into the
        lane its head turn belongs to.  Lane entries may go stale — the
        pump validates on pop — but the sets keep each client enqueued at
        most once per lane."""
        if self._queues[client][0].demanded:
            if client not in self._demand_set:
                self._demand_set.add(client)
                self._demand_ready.append(client)
        elif client not in self._ready_set:
            self._ready_set.add(client)
            self._ready.append(client)

    def _demand(self, ticket: PoolTicket) -> None:
        """A consumer is blocked on ``ticket``: let it (and the same
        client's earlier turns, which per-client FIFO runs first) jump the
        admission window."""
        with self._lock:
            if ticket.done() or ticket.demanded:
                return
            ticket.demanded = True
            queue = self._queues.get(ticket.client)
            if queue:
                for t in queue:
                    if t.seq <= ticket.seq:
                        t.demanded = True
                if ticket.client not in self._busy_clients:
                    self._mark_ready_locked(ticket.client)
            self._pump_locked()
        self.broker.run_dispatched()

    def _consume(self, ticket: PoolTicket) -> None:
        with self._lock:
            if not ticket._consumed:
                ticket._consumed = True
                self._unconsumed -= 1
                self._pump_locked()
        self.broker.run_dispatched()

    def _abandon(self, ticket: PoolTicket) -> None:
        """A waiter timed out on ``ticket`` and may never collect it: give
        the admission slot back — now if the turn already finished, else in
        :meth:`turn_done` when it does."""
        with self._lock:
            ticket._abandoned = True
            if ticket._event.is_set() and not ticket._consumed:
                ticket._consumed = True
                self._unconsumed -= 1
                self._pump_locked()
        self.broker.run_dispatched()

    def _pump_locked(self) -> None:
        """Hand startable turns to the broker (per-client FIFO, demand
        first): always a client's *head* turn, never while an earlier turn
        of the same client is still running.  A turn the broker cannot fuse
        starts as soon as it may; a fusable one waits for company."""
        while not self._stopped and self.broker.capacity_free():
            client = self._pop_startable_locked()
            if client is None:
                return
            head = self._queues[client][0]
            if not head.fusable:
                self.broker.execute(self._start_ticket_locked(client))
                continue
            if not head.demanded and self._n_pending < self._window:
                # nobody is blocked on this turn and less than a window's
                # worth is waiting: leave it pending so a later pump (a
                # demand, or more submissions) starts a fused batch instead
                # of a singleton.  Every consumed turn is demanded on read,
                # so deferred turns can never be stranded.
                self._ready_set.add(client)
                self._ready.appendleft(client)
                return
            batch = [self._start_ticket_locked(client)]
            unfusable: List[int] = []
            while (client := self._pop_startable_locked()) is not None:
                if self._queues[client][0].fusable:
                    batch.append(self._start_ticket_locked(client))
                else:
                    unfusable.append(client)
            for client in unfusable:  # next iteration starts them per turn
                self._mark_ready_locked(client)
            if len(batch) > 1:
                self.broker.execute_batch(batch)
            else:
                self.broker.execute(batch[0])

    def _start_ticket_locked(self, client: int) -> PoolTicket:
        """Pop ``client``'s head turn and account it as started."""
        queue = self._queues[client]
        ticket = queue.popleft()
        if not queue:
            del self._queues[client]
        self._n_pending -= 1
        ticket.started = True
        self._busy_clients.add(client)
        self._unconsumed += 1
        return ticket

    def _pop_startable_locked(self) -> Optional[int]:
        """Next client whose head turn may start, validating stale lane
        entries (busy again, drained, or demand already satisfied)."""
        while self._demand_ready:
            client = self._demand_ready.popleft()
            self._demand_set.discard(client)
            if client in self._busy_clients:
                continue  # re-enters a lane via turn_done
            queue = self._queues.get(client)
            if not queue:
                continue
            if not queue[0].demanded:
                # the demanded turn already ran; back to the plain lane
                if client not in self._ready_set:
                    self._ready_set.add(client)
                    self._ready.append(client)
                continue
            return client
        if self._unconsumed < self._window:
            while self._ready:
                client = self._ready.popleft()
                self._ready_set.discard(client)
                if client in self._busy_clients:
                    continue
                if self._queues.get(client):
                    return client
        return None

    def __repr__(self) -> str:
        return (
            f"ClientPool(clients={self.num_clients}, broker={self.broker.scheme!r}, "
            f"workers={self.pool_size}, turns={self.turns_run}, stored={len(self.store)})"
        )
