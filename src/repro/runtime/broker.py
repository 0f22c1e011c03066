"""Turn-queue brokers: pluggable transport behind the client pool.

The :class:`~repro.runtime.pool.ClientPool` owns *policy* — per-client
FIFO, the admission window, demand semantics — and delegates *transport*
(where a started turn actually executes) to a :class:`TurnBroker`.  Brokers
are chosen by URL scheme through a registry, mirroring the WorQ/pymq
``Broker('memory://')`` pattern:

======  ====================================================================
scheme  execution substrate
======  ====================================================================
memory  one in-process worker node, turns run on the thread that pumps the
        pool (default)
redis   worker *processes* pulling turns from a redis list, with the
        ``ClientStateStore`` sharded into a redis hash (see
        :mod:`repro.runtime.redis`)
tcp     the same redis turn loop, served by a MiniRedis the engine hosts at
        the URL's address: workers dial the engine itself, no redis server
        needed (see :class:`repro.runtime.redis.TcpBroker`)
======  ====================================================================

``Broker(url)`` builds the right broker, raising :class:`ValueError` for
unknown schemes with the registered schemes named.  Third parties register
their own via :func:`register_broker`.  Every out-of-process scheme also
names the :class:`WorkerLink` its ``python -m repro worker <url>`` processes
speak — the two halves of one transport live behind one registry key.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from importlib import import_module
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple, Type, Union,
)
from urllib.parse import parse_qs, urlparse

from repro.engine.client_state import ClientStateStore, StateArena
from repro.runtime.fused import FusedTurnRunner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.node.node import Node
    from repro.runtime.pool import ClientPool, PoolTicket

__all__ = [
    "BROKER_SCHEMES",
    "MAX_INFLIGHT",
    "register_broker",
    "broker_scheme",
    "broker_class",
    "url_fields",
    "Broker",
    "TurnBroker",
    "WorkerLink",
    "MemoryBroker",
    "BrokerError",
    "BrokerTurnLost",
    "BrokerUnavailable",
]

#: decoded turn results a fusing ``memory://`` pool may hold unconsumed: its
#: admission window is this many bytes of model states (see
#: :meth:`MemoryBroker.default_window`)
RESULT_BUDGET_BYTES = 32 << 20

#: dispatched-but-unresolved turns a remote broker (``redis://``, ``tcp://``)
#: holds before the pool's pump backs off
MAX_INFLIGHT = 256

#: scheme -> broker class, or the path of the module that registers it when
#: first asked for (a ``memory://`` run never imports the redis turn loop);
#: extend with :func:`register_broker`
BROKER_SCHEMES: Dict[str, Union[Type["TurnBroker"], str]] = {
    "redis": "repro.runtime.redis",
    "tcp": "repro.runtime.redis",
}


class BrokerError(RuntimeError):
    """A broker-layer failure (transport, lease, worker loss)."""


class BrokerTurnLost(BrokerError):
    """A dispatched turn can no longer complete: the worker holding its
    lease died (or never claimed it) and the retry budget is exhausted.
    Delivered through the ticket, so a scheduler blocked on ``result()``
    fails fast instead of stalling the run."""


class BrokerUnavailable(BrokerError, ConnectionError):
    """The broker backend cannot be reached."""


def register_broker(scheme: str) -> Callable[[Type["TurnBroker"]], Type["TurnBroker"]]:
    """Class decorator: make ``scheme://...`` URLs build the class."""

    def deco(cls: Type["TurnBroker"]) -> Type["TurnBroker"]:
        cls.scheme = scheme
        BROKER_SCHEMES[scheme] = cls
        return cls

    return deco


def broker_scheme(url: str) -> str:
    """Validate ``url`` and return its (registered) scheme."""
    if not isinstance(url, str) or not url:
        raise ValueError(f"invalid broker URL: {url!r} (expected a scheme:// string)")
    scheme = urlparse(url).scheme
    if scheme not in BROKER_SCHEMES:
        known = ", ".join(sorted(BROKER_SCHEMES))
        raise ValueError(
            f"invalid broker URL {url!r}: unknown scheme {scheme!r} "
            f"(registered schemes: {known})"
        )
    return scheme


def broker_class(url: str) -> Type["TurnBroker"]:
    scheme = broker_scheme(url)
    if isinstance(BROKER_SCHEMES[scheme], str):
        import_module(BROKER_SCHEMES[scheme])  # its @register_broker fills the slot
    return BROKER_SCHEMES[scheme]


def url_fields(url: str, known: Mapping[str, Tuple[str, Callable[[str], Any]]]) -> Dict[str, Any]:
    """A broker URL's query as ``{field: value}`` through its scheme's
    ``{query key: (field, parser)}`` table; an unknown key is a
    ``ValueError`` naming the known ones, never a silently kept default."""
    params = {k: v[-1] for k, v in parse_qs(urlparse(url).query).items()}
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(
            f"broker URL {url!r}: unknown parameters {unknown} (known: {sorted(known)})"
        )
    return {known[k][0]: known[k][1](v) for k, v in params.items()}


def Broker(url: str, **kwargs: Any) -> "TurnBroker":  # noqa: N802 - factory styled as a type
    """Build the broker for ``url`` (``ValueError`` on unknown schemes)."""
    return broker_class(url)(url, **kwargs)


# ----------------------------------------------------------------------
class TurnBroker:
    """Transport contract between the pool and an execution substrate.

    Lifecycle: construct -> ``attach(pool)`` -> ``start()`` -> many
    ``execute(ticket)`` -> ``shutdown()``.  ``capacity_free`` and
    ``execute`` are always called under the pool's lock (so they must not
    block on turn completion); a broker reports each finished turn back via
    ``pool.turn_done(ticket, result, exc, release=...)``, which re-pumps the
    queue.
    """

    #: registry key, set by :func:`register_broker`
    scheme: str = "?"
    #: True when turns execute outside this process (workers are remote)
    distributed: bool = False

    #: where client snapshots live between turns (brokers may shard this
    #: behind the transport; the attribute always answers locally)
    store: ClientStateStore

    def __init__(self, url: str, **kwargs: Any) -> None:
        self.url = url

    @classmethod
    def check_url(cls, url: str) -> None:
        """Validate scheme-specific URL parameters (``ValueError`` on a bad
        one).  Specs call this at construction, so a typo fails before
        anything binds or spawns."""

    @classmethod
    def worker_link(cls, url: str, worker_id: str) -> "WorkerLink":
        """The link a ``python -m repro worker <url>`` process serves this
        scheme's turns through."""
        raise ValueError(
            f"{cls.scheme}:// brokers run turns inside the engine process; "
            "there is no worker to start"
        )

    # -- lifecycle -----------------------------------------------------
    def attach(self, pool: "ClientPool") -> None:
        """Called once by the pool that owns this broker."""
        self.pool = pool

    def start(self) -> None:
        """Bring up the substrate (capture baselines, connect, spawn)."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Tear down transport and workers; idempotent."""
        raise NotImplementedError

    # -- dispatch (called under the pool lock) -------------------------
    def capacity_free(self) -> bool:
        """True when another turn can be dispatched right now."""
        raise NotImplementedError

    def execute(self, ticket: "PoolTicket") -> None:
        """Dispatch one started ticket; must return without waiting."""
        raise NotImplementedError

    def run_dispatched(self) -> None:
        """Run what :meth:`execute`/:meth:`execute_batch` recorded, on the
        calling thread and outside the pool lock.  Brokers whose turns run
        elsewhere have nothing to do here."""

    def fusable(self, ticket: "PoolTicket") -> bool:
        """Whether this turn may ride in an :meth:`execute_batch` with other
        fusable turns.  The pool asks once per submitted ticket (after
        :meth:`start`): a fusable turn waits for company until a consumer
        blocks on a ticket or a window's worth is pending, anything else
        dispatches eagerly through :meth:`execute`."""
        return False

    def execute_batch(self, tickets: List["PoolTicket"]) -> None:
        """Dispatch several started :meth:`fusable` tickets as one fused
        unit.  Every ticket must still be reported individually through
        ``pool.turn_done`` with results bit-identical to per-turn
        execution."""
        raise NotImplementedError(f"{type(self).__name__} does not batch turns")

    def outcome(self, ticket: "PoolTicket", result: Dict[str, Any]) -> Tuple[Any, ...]:
        """``(ticket, value, exc)`` for a started turn, from its worker's
        decoded result frame (:func:`repro.runtime.serde.decode_result`) —
        what ``pool.turn_done`` / ``pool.turns_done_batch`` take."""
        if result["ok"]:
            return ticket, result["value"], None
        err = result["error"]
        detail = f"{err['type']}: {err['message']}"
        if err.get("traceback"):
            detail += f"\n--- worker {result['worker']} traceback ---\n{err['traceback']}"
        return ticket, None, RuntimeError(
            f"client {result['client']} turn failed on worker {result['worker']}: {detail}"
        )

    # -- introspection (telemetry reads these on the record path) ------
    @property
    def pool_size(self) -> int:
        """Execution slots (workers) this broker dispatches onto."""
        raise NotImplementedError

    def default_window(self) -> int:
        """Admission-window size when the spec does not pin one."""
        return max(2 * max(self.pool_size, 1), 4)

    def queue_depth(self) -> int:
        """Turns dispatched to the substrate and not yet completed."""
        raise NotImplementedError

    def idle_workers(self) -> int:
        """Workers currently free (best-effort for remote substrates)."""
        raise NotImplementedError

    def snapshot_bytes(self) -> int:
        """Bytes of client state held behind this broker."""
        return self.store.nbytes()

    def describe(self) -> Dict[str, Any]:
        return {"scheme": self.scheme, "url": self.url,
                "distributed": self.distributed, "workers": self.pool_size}


# ----------------------------------------------------------------------
class WorkerLink:
    """Transport contract between a worker process and its engine.

    The worker-side half of a distributed :class:`TurnBroker`: the
    :class:`~repro.runtime.worker.Worker` loop is ``next_item`` -> ``claim``
    -> run -> ``commit``, one queue item (one or more turns) at a time, and
    everything transport-specific — where turns queue, where snapshots live,
    what one heartbeat sends — sits behind these calls.  The worker's
    :class:`~repro.runtime.liveness.Heartbeater` calls :meth:`beat` from its
    own thread, so ``beat`` uses a connection of its own.  A lost server
    surfaces as ``ConnectionError``/``OSError`` from whichever call noticed.
    """

    #: ``next_item`` return value meaning "the run is over, exit cleanly"
    STOP = b"STOP"

    #: seconds between beats; :meth:`open` may take it from the engine
    beat_period = 1.0

    def __init__(self, url: str, worker_id: str) -> None:
        self.url = url
        self.worker_id = worker_id

    def open(self) -> Tuple[str, Optional[int]]:
        """Connect and fetch the published ``(spec_yaml, num_clients)``
        (``num_clients`` ``None``: derive it from the spec's topology)."""
        raise NotImplementedError

    def beat(self) -> Dict[str, Any]:
        """Send one heartbeat — renewing this worker's liveness mark and the
        leases of the item in hand — and return the engine's reply meta
        (``stop``: the run is over)."""
        raise NotImplementedError

    def next_item(self) -> Union[None, bytes, List[bytes]]:
        """Wait briefly for a queue item: the serde turn frames it carries;
        ``None`` when nothing arrived yet, :attr:`STOP` when the engine
        said stop."""
        raise NotImplementedError

    def claim(self, turns: List[Tuple[int, int]], gkeys: List[int]
              ) -> Tuple[List[bool], Dict[int, Optional[bytes]], List[Any]]:
        """Take ownership of an item's ``(turn_id, client)`` turns and fetch
        what running them needs, in one exchange.  Returns which turns to run
        (``False``: already done — :meth:`commit` only releases it), the
        interned global-state frames named by ``gkeys``, and
        each client's stored snapshot (``None`` before its first turn)."""
        raise NotImplementedError

    def give_back(self, frames: List[bytes]) -> None:
        """Return unclaimed turn frames to the front of the queue."""
        raise NotImplementedError

    def commit(self, outcomes: List[Tuple[int, int, Any, Callable[[int], bytes]]]) -> None:
        """Finish the claimed item: for each ``(turn_id, client, snapshot,
        encode_result)`` that ran, store ``snapshot`` (``None``: the turn
        never swapped in) and deliver ``encode_result(snapshot_frame_bytes)``."""
        raise NotImplementedError

    def close(self) -> None:
        """Deregister and disconnect; safe on a link never opened."""
        raise NotImplementedError


# ----------------------------------------------------------------------
@register_broker("memory")
class MemoryBroker(TurnBroker):
    """The in-process substrate: one node, run on the thread that pumps the
    pool (inside ``submit`` or ``result``).

    :meth:`execute`/:meth:`execute_batch` only record a dispatch under the
    pool lock; :meth:`run_dispatched` runs it once the lock is released.  A
    completion that starts the next turn appends to the run list instead of
    recursing, so the thousandth turn runs as deep in the stack as the
    first.  ``pool_size`` counts dispatch slots, not threads or replicas;
    records never depended on either (streams are keyed by client id).
    """

    distributed = False

    def __init__(
        self,
        url: str = "memory://",
        *,
        node: "Node",
        slots: int = 1,
        num_clients: Optional[int] = None,
        **_: Any,
    ) -> None:
        super().__init__(url)
        self._node = node
        self._slots = int(slots)
        # with a known cohort size, back snapshots with a preallocated
        # per-client arena so steady-state state swaps are allocation-free
        arena = StateArena(num_clients) if num_clients else None
        self.store = ClientStateStore(arena=arena)
        self._baseline: Optional[Dict[str, Any]] = None
        # None when the configured algorithm/model/plugins rule fusion out
        self._runner: Optional[FusedTurnRunner] = None
        self._runs: Deque[List["PoolTicket"]] = deque()  # recorded, not yet run
        self._draining = threading.Lock()  # held by the thread running them
        self._dispatched = self._inflight = 0  # dispatches/turns not yet reported

    @classmethod
    def check_url(cls, url: str) -> None:
        url_fields(url, {})  # the in-process broker takes no parameters

    # -- lifecycle -----------------------------------------------------
    def attach(self, pool: "ClientPool") -> None:
        # weakly: this broker holds the engine's worker node, so a strong
        # pointer back at the pool that owns it would be the cycle that
        # keeps a dropped engine's models alive until the collector runs
        self.pool = weakref.proxy(pool)

    def start(self) -> None:
        """Set the node up, then capture the pristine first-turn state and
        what fuses (once)."""
        if self._baseline is None:
            self._node.setup_local()
            self._baseline = self._node.pool_baseline()
            self._runner = FusedTurnRunner.build(self._node.fusion_context())

    def shutdown(self) -> None:
        # the pool's stop() already ran every recorded dispatch
        self._node.shutdown()

    # -- dispatch ------------------------------------------------------
    @property
    def pool_size(self) -> int:
        return self._slots

    def capacity_free(self) -> bool:
        return self._dispatched < self._slots

    def default_window(self) -> int:
        """A configuration that fuses admits as many turns as fit the result
        budget — the window exists to bound decoded results, so it counts
        their bytes; one that does not keeps the pool-sized default."""
        window = super().default_window()
        if self._runner is not None:
            nbytes = sum(a.nbytes for a in self._baseline["model"].values())
            window = max(window, RESULT_BUDGET_BYTES // max(nbytes, 1))
        return window

    def fusable(self, ticket: "PoolTicket") -> bool:
        return self._runner is not None and self._runner.turn_eligible(ticket)

    def execute(self, ticket: "PoolTicket") -> None:
        self._record([ticket])

    def execute_batch(self, tickets: List["PoolTicket"]) -> None:
        """Record several fusable turns to run as one fused pass."""
        self._record(list(tickets))

    def _record(self, tickets: List["PoolTicket"]) -> None:
        self._dispatched += 1
        self._inflight += len(tickets)
        self._runs.append(tickets)

    def run_dispatched(self) -> None:
        """Run every recorded dispatch on the calling thread.  While a drain
        is under way (this thread's, or another's) this returns at once:
        that drain's loop runs what was appended."""
        while self._runs and self._draining.acquire(blocking=False):
            try:
                while self._runs:
                    self._serve(self._runs.popleft())
            finally:
                self._draining.release()

    def _serve(self, tickets: List["PoolTicket"]) -> None:
        """Run one dispatch, report every ticket, hand its slot back."""

        def release() -> None:  # runs under the pool lock, before the pump
            self._dispatched -= 1
            self._inflight -= len(tickets)

        if len(tickets) == 1:
            self.pool.turn_done(tickets[0], *self._attempt(tickets[0]), release=release)
            return
        try:
            done = self._run_batch(tickets)
        except BaseException as exc:  # noqa: BLE001 - delivered through the tickets
            # the batch machinery itself died before reporting anything
            done = [(ticket, None, exc) for ticket in tickets]
        self.pool.turns_done_batch(done, release)

    def _attempt(self, ticket: "PoolTicket") -> Tuple[Any, Optional[BaseException]]:
        """One turn as ``(value, error)`` — whatever went wrong, the ticket
        carries it to the consumer.  The snapshot is stored even when the
        method raised (see :meth:`Node.run_client_turn`)."""
        assert self._baseline is not None
        try:
            value, error, snapshot = self._node.run_client_turn(
                ticket.client, self.store.get(ticket.client), self.pool.data_view(ticket),
                self._baseline, ticket.method, ticket.args, ticket.kwargs,
            )
            self.store.put(ticket.client, snapshot)
        except BaseException as exc:  # noqa: BLE001 - swap or store failure
            return None, exc
        return value, error

    def _run_batch(self, tickets: List["PoolTicket"]) -> List[Tuple[Any, ...]]:
        """A fused batch, falling back to the exact per-turn path
        (:meth:`FusedTurnRunner.run_or_fallback`), as the
        ``(ticket, value, error)`` outcomes to report."""
        assert self._baseline is not None and self._runner is not None
        jobs = [(t, self.store.get(t.client), self.pool.data_view(t))
                for t in tickets]
        with self._node.tracer.span("pool.fused_batch", cat="pool", clients=len(tickets)):
            # a per-turn rerun stores its own snapshot, so it hands back None
            outcomes = self._runner.run_or_fallback(
                jobs, self._baseline, lambda job: self._attempt(job[0]) + (None,))
        done = []
        for ticket, (result, error, snapshot, _) in zip(tickets, outcomes):
            if snapshot is not None:
                self.store.put(ticket.client, snapshot)
            done.append((ticket, result, error))
        return done

    # -- introspection -------------------------------------------------
    def queue_depth(self) -> int:
        return self._inflight

    def idle_workers(self) -> int:
        return self._slots - self._dispatched
