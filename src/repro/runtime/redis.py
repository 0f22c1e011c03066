"""The ``redis://`` broker: client turns executed by worker processes.

Topology: the engine process runs scheduling (virtual-time queue, admission
window, per-client FIFO) and *submits* turns; worker processes — spawned
via ``python -m repro worker <url>`` or auto-spawned with ``?workers=N`` —
pull turns from a redis list (through :class:`RedisLink`, the worker's half
of this module) and run them on locally-reconstructed nodes.
The :class:`~repro.engine.client_state.ClientStateStore` shards into a
redis hash: every turn swaps its client's snapshot in from the hash and
back out, using the :mod:`repro.comm.wire` codec (via
:mod:`repro.runtime.serde`) for transport, so a cohort's state lives
behind the broker rather than in any single process.

The turn loop and its failure protocol.  A *queue item* is a batch of one
or more turn frames (:func:`~repro.runtime.serde.pack_frames`), results
travel back the same way, and each block of lines is one round trip::

    engine                          redis                    worker
    ------                          -----                    ------
    HSET gstate (new payloads)
    HDEL gstate (unreferenced)
    LPUSH item ------------------>  turns
                                    stop, turns --GET, BRPOP-> item

                                    done   --HMGET---------> claim: dedupe
                                    leases <-HSET (K fields)   lease all K
                                    snap   --HMGET---------> swap-in
                                    gstate --HMGET---------> payloads not cached

                                                             train (one stacked pass)

                                    MULTI: snap<-HSET (K snapshots)
                                           done<-HSET (K dedupe marks)
                                           results<-LPUSH (one item)
                                           leases<-HDEL (K fields)
                                    EXEC
    HDEL done (last item's, bar requeued turns)
    BRPOP results <---------------  results
    resolve K tickets

Only fusable turns share an item (:meth:`RedisBroker.fusable`), and one
worker trains a whole item (on a 2-core host, faster with 2 or 4 workers
than splitting the batch among them).  Lease, dedupe, requeue and loss
stay per turn: a requeued turn goes back alone.

``local_update`` turns do not carry the global model: the engine interns
each dispatch epoch's payload once in the ``gstate`` hash and the turn
frame references it by key (workers keep the last item's payloads
decoded), so a 1000-client round ships one model, not one thousand.

Worker heartbeats renew every lease of the item in hand in one ``HSET``;
the engine-side collector sweeps the lease table and **requeues** turns
whose lease expired (dead worker mid-turn), up to ``max_requeues`` times.
Worker liveness and lease expiry are the one rule of
:mod:`repro.runtime.liveness`: a hash value unchanged for longer than its
window on the engine's monotonic clock is dead — never a worker's wall-clock
stamp compared to the engine's (see :meth:`RedisBroker._sweep`).  A turn
that stays unclaimed past ``claim_timeout`` with no live heartbeat — or
that exhausts its requeues — fails its ticket with
:class:`~repro.runtime.broker.BrokerTurnLost`, so a scheduler blocked on
the admission window gets a failed ticket instead of a stalled run.  Completed turns are marked in the ``done`` hash, in the
transaction that ships their results; a requeued duplicate is released
without re-training, so retries cannot double-advance client state.  The
collector clears the marks in its next pull (drawn above) except those of
turns ever requeued, which stay until shutdown for a duplicate to find.

URL parameters (``redis://host:port/db?workers=2&lease=30``):

``workers``   worker processes to auto-spawn (default 0: external workers)
``lease``     seconds a claimed turn may go unrenewed before requeue (30;
              must exceed ``hb``)
``claim``     seconds an unclaimed turn may wait with no live workers (10)
``hb``        worker heartbeat period in seconds (1.0)
``requeues``  max requeues per turn before the ticket fails (2)
``run``       namespace id (default: derived from the spec + a nonce)

At most :data:`~repro.runtime.broker.MAX_INFLIGHT` turns are unresolved
before a new batch is held back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional
from urllib.parse import urlparse

from repro.runtime import serde
from repro.runtime.broker import (
    MAX_INFLIGHT,
    BrokerTurnLost,
    BrokerUnavailable,
    TurnBroker,
    WorkerLink,
    register_broker,
    url_fields,
)
from repro.runtime.fused import FusedTurnRunner
from repro.runtime.liveness import Marks, silent
from repro.runtime.resp import POP_SLACK, RespClient, RespError
from repro.utils.logging import get_logger

_LOG = get_logger("redis-broker")

__all__ = ["RedisBroker", "RedisLink", "RedisUrl", "parse_redis_url", "RedisSnapshotStore"]


@dataclass
class RedisUrl:
    """Parsed broker URL: connection endpoint + protocol tuning."""

    url: str
    host: str = "127.0.0.1"
    port: int = 6379
    db: int = 0
    password: Optional[str] = None
    workers: int = 0
    lease: float = 30.0
    claim: float = 10.0
    heartbeat: float = 1.0
    max_requeues: int = 2
    run: str = ""

    def namespace(self) -> str:
        return f"repro:{self.run}" if self.run else "repro:run"

    def key(self, name: str) -> str:
        return f"{self.namespace()}:{name}"

    def with_run(self, run: str) -> str:
        """The URL string with the namespace pinned (handed to workers)."""
        base, sep, query = self.url.partition("?")
        params = [p for p in query.split("&") if p and not p.startswith("run=")]
        params.append(f"run={run}")
        return base + "?" + "&".join(params)


#: URL query key -> (RedisUrl field, parser)
_URL_PARAMS = {
    "workers": ("workers", int),
    "lease": ("lease", float),
    "claim": ("claim", float),
    "hb": ("heartbeat", float),
    "requeues": ("max_requeues", int),
    "run": ("run", str),
}


def parse_redis_url(url: str) -> RedisUrl:
    """The one parser for redis broker URLs (engine and worker side);
    ``ValueError`` on an unknown key or a bad value."""
    parsed = urlparse(url)
    if parsed.scheme != "redis":
        raise ValueError(f"not a redis URL: {url!r}")
    path = (parsed.path or "").strip("/")
    out = RedisUrl(
        url=url,
        host=parsed.hostname or "127.0.0.1",
        port=parsed.port or 6379,
        db=int(path) if path else 0,
        password=parsed.password,
        **url_fields(url, _URL_PARAMS),
    )
    if out.lease <= 0 or out.claim <= 0 or out.heartbeat <= 0:
        raise ValueError(f"lease/claim/hb must be positive in {url!r}")
    if out.lease <= out.heartbeat:
        raise ValueError(
            f"lease must exceed hb in {url!r} (a lease shorter than one renewal "
            "period requeues turns held by live workers)"
        )
    return out


def _lease_holder(raw: Any) -> str:
    """The worker id a raw ``leases`` hash value names (``?`` if unreadable)."""
    try:
        return str(json.loads(raw).get("worker", "?"))
    except (ValueError, TypeError, AttributeError):
        return "?"


@dataclass
class _Entry:
    """Engine-side record of one dispatched, unresolved turn."""

    ticket: Any
    frame: bytes  # this turn's own frame: a requeue sends it as an item of one
    requeues: int = 0
    submitted: float = field(default_factory=time.monotonic)
    leased: bool = False
    gkey: Optional[int] = None  # interned global-state entry the frame references


class RedisSnapshotStore:
    """The ``ClientStateStore`` surface over the broker's snapshot hash.

    ``get``/``put``/``pop`` hit redis (each caller thread gets its own
    connection); ``__len__``/``nbytes`` answer from the broker's local
    tally — maintained from turn acks — so telemetry's record-path reads
    and post-shutdown introspection never need a live connection.
    """

    def __init__(self, broker: "RedisBroker") -> None:
        self._broker = broker
        self._local = threading.local()

    def _conn(self) -> RespClient:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._broker._connect()
        return conn

    def get(self, client: int):
        frame = self._conn().execute("HGET", self._broker.cfg.key("snap"), int(client))
        return None if frame is None else serde.decode_snapshot(frame)

    def put(self, client: int, snapshot) -> None:
        frame = serde.encode_snapshot(snapshot)
        self._conn().execute("HSET", self._broker.cfg.key("snap"), int(client), frame)
        self._broker._note_snapshot(int(client), len(frame))

    def pop(self, client: int):
        snapshot = self.get(client)
        self._conn().execute("HDEL", self._broker.cfg.key("snap"), int(client))
        self._broker._note_snapshot(int(client), 0)
        return snapshot

    def clients(self) -> List[int]:
        with self._broker._tally_lock:
            return sorted(self._broker._snap_sizes)

    def __contains__(self, client: int) -> bool:
        with self._broker._tally_lock:
            return int(client) in self._broker._snap_sizes

    def __len__(self) -> int:
        with self._broker._tally_lock:
            return len(self._broker._snap_sizes)

    def nbytes(self) -> int:
        with self._broker._tally_lock:
            return sum(self._broker._snap_sizes.values())


@register_broker("redis")
class RedisBroker(TurnBroker):
    """Turns over a redis queue, executed by worker processes."""

    distributed = True

    def __init__(
        self,
        url: str,
        *,
        spec: Any = None,
        num_clients: Optional[int] = None,
        default_workers: Optional[int] = None,
        runner: Optional[FusedTurnRunner] = None,
        **_: Any,
    ) -> None:
        super().__init__(url)
        self.cfg = parse_redis_url(url)
        if self.cfg.workers == 0 and default_workers:
            self.cfg.workers = int(default_workers)
        # the runner every worker builds (None: nothing fuses), from a probe
        self._runner = runner
        self._spec = spec
        self._num_clients = num_clients
        self._entries: Dict[int, _Entry] = {}
        self._entry_lock = threading.Lock()
        self._tally_lock = threading.Lock()
        self._snap_sizes: Dict[int, int] = {}
        self._next_turn = 0
        # interned global-state payloads: the scheduler reuses one payload
        # object per dispatch epoch, so identity maps cleanly onto "ship the
        # model once per round" (strong refs keep the ids valid)
        self._gstate_ids: Dict[int, int] = {}  # id(payload) -> gkey
        self._gstate_refs: Dict[int, Any] = {}  # gkey -> payload
        self._gstate_next = 0
        # the marks _sweep judges: raw heartbeat values by worker, raw lease
        # values by turn
        self._hb_seen = Marks()
        self._lease_seen = Marks()
        self._idle_workers = 0
        # turns resolved, by the size of the batch each trained in
        self._batch_sizes: Counter = Counter()
        self._requeues = 0
        self._done_clear: List[int] = []  # done marks the collector's next pull drops
        self._procs: List[subprocess.Popen] = []
        self._collector: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False
        self._conn: Optional[RespClient] = None
        self.store = RedisSnapshotStore(self)

    # ------------------------------------------------------------------
    def _connect(self) -> RespClient:
        try:
            return RespClient(self.cfg.host, self.cfg.port, db=self.cfg.db,
                              password=self.cfg.password)
        except RespError as exc:
            raise BrokerUnavailable(
                f"redis broker backend unreachable at "
                f"{self.cfg.host}:{self.cfg.port}: {exc}"
            ) from exc

    def start(self) -> None:
        if self._started:
            return
        if not self.cfg.run:
            # namespace every run uniquely so two experiments (or a retry)
            # sharing one redis cannot cross wires
            self.cfg.run = os.urandom(6).hex()
        self._conn = self._connect()
        self._conn.ping()
        meta = {"num_clients": self._num_clients, "created": time.time()}
        if self._spec is not None:
            try:
                spec_yaml = self._spec.to_yaml()
            except Exception as exc:
                raise ValueError(
                    "a redis:// broker ships the spec to worker processes, "
                    f"so it must serialize to YAML: {exc}"
                ) from exc
            self._conn.execute("SET", self.cfg.key("spec"), spec_yaml)
        self._conn.execute("SET", self.cfg.key("meta"), json.dumps(meta))
        self._spawn_workers()
        self._collector = threading.Thread(
            target=self._collect_loop, name="redis-broker-collector", daemon=True
        )
        self._started = True
        self._collector.start()
        _LOG.info(
            "redis broker up at %s:%d ns=%s workers=%d",
            self.cfg.host, self.cfg.port, self.cfg.namespace(), self.cfg.workers,
        )

    def _spawn_workers(self) -> None:
        if self.cfg.workers <= 0:
            return
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        worker_url = self.cfg.with_run(self.cfg.run)
        for i in range(self.cfg.workers):
            self._procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", worker_url],
                env=env,
            ))

    # -- dispatch (under the pool lock) --------------------------------
    @property
    def pool_size(self) -> int:
        return max(self.cfg.workers, 1)

    def default_window(self) -> int:
        return max(2 * self.pool_size, 8)

    def capacity_free(self) -> bool:
        with self._entry_lock:
            return len(self._entries) < MAX_INFLIGHT

    def fusable(self, ticket) -> bool:
        return self._runner is not None and self._runner.turn_eligible(ticket)

    def execute(self, ticket) -> None:
        self.execute_batch([ticket])

    def execute_batch(self, tickets) -> None:
        """Queue the tickets as one item, in one round trip."""
        assert self._conn is not None
        payloads: List[Any] = []  # gkey, encoded payload, ...: the new interns
        entries: Dict[int, _Entry] = {}
        for ticket in tickets:
            args, gkey = ticket.args, None
            if (ticket.method == "local_update" and not ticket.kwargs
                    and len(args) == 3 and isinstance(args[0], dict)):
                # intern the broadcast payload: ship the global state to redis
                # once per dispatch epoch and reference it by key, instead of
                # embedding a full model copy in every client's turn frame
                payload = args[0]
                gkey = self._gstate_ids.get(id(payload))
                if gkey is None:
                    gkey = self._gstate_next
                    self._gstate_next += 1
                    payloads += [gkey, serde.encode_payload(payload)]
                    self._gstate_ids[id(payload)] = gkey
                    self._gstate_refs[gkey] = payload
                args = ({serde.GSTATE_KEY: gkey},) + tuple(args[1:])
            turn_id = self._next_turn
            self._next_turn += 1
            frame = serde.encode_turn(turn_id, ticket.client, ticket.method, args, ticket.kwargs)
            entries[turn_id] = _Entry(ticket=ticket, frame=frame, gkey=gkey)
        # register the whole batch before pruning, so no key it references
        # counts as unreferenced
        with self._entry_lock:
            self._entries.update(entries)
        commands = []
        if payloads:
            # lands before the item does, so a worker can never pull a
            # sentinel it cannot resolve
            commands.append(("HSET", self.cfg.key("gstate"), *payloads))
        stale = self._unreferenced_gstate()
        if stale:
            commands.append(("HDEL", self.cfg.key("gstate"), *stale))
        commands.append(("LPUSH", self.cfg.key("turns"),
                         serde.pack_frames([e.frame for e in entries.values()])))
        self._conn.pipeline(commands)

    def _unreferenced_gstate(self) -> List[int]:
        """Forget interned payloads no in-flight turn can still reference
        (the latest stays); returns their keys."""
        latest = self._gstate_next - 1
        with self._entry_lock:
            live = {e.gkey for e in self._entries.values() if e.gkey is not None}
        live.add(latest)
        stale = [k for k in self._gstate_refs if k not in live]
        for gkey in stale:
            payload = self._gstate_refs.pop(gkey)
            self._gstate_ids.pop(id(payload), None)
        return stale

    # -- collector thread ----------------------------------------------
    def _collect_loop(self) -> None:
        conn = self._connect()
        last_sweep = 0.0
        try:
            while not self._stop.is_set():
                try:
                    item = self._pull(conn)
                except RespError as exc:
                    if self._stop.is_set():
                        return
                    self._fail_all(BrokerUnavailable(f"redis connection lost: {exc}"))
                    return
                if item is not None:
                    self._resolve(item)
                now = time.monotonic()
                if now - last_sweep >= min(0.5, self.cfg.lease / 4):
                    last_sweep = now
                    try:
                        self._sweep(conn)
                    except RespError as exc:
                        if self._stop.is_set():
                            return
                        self._fail_all(BrokerUnavailable(f"redis connection lost: {exc}"))
                        return
        finally:
            conn.close()

    def _pull(self, conn: RespClient) -> Optional[bytes]:
        """The next results item (``None`` after a quiet 0.5 s), in one round
        trip with the ``HDEL`` of the done marks the last items left to clear."""
        wait = 0.5
        commands = [("BRPOP", self.cfg.key("results"), wait)]
        if self._done_clear:
            commands.insert(0, ("HDEL", self.cfg.key("done"), *self._done_clear))
            self._done_clear = []
        popped = conn.pipeline(commands, timeout=wait + POP_SLACK)[-1]
        return None if popped is None else popped[1]

    def _resolve(self, item: bytes) -> None:
        try:
            results = [serde.decode_result(f) for f in serde.unpack_frames(item)]
        except Exception:
            _LOG.exception("undecodable result item (%d bytes) dropped", len(item))
            return
        with self._entry_lock:
            entries = [self._entries.pop(result["turn"], None) for result in results]
        outcomes = []
        for result, entry in zip(results, entries):
            if entry is None:
                continue  # duplicate ack from a requeued turn already resolved
            if not entry.requeues:
                # a requeued turn keeps its mark (until shutdown's DEL): a
                # duplicate still queued must find it and not train again
                self._done_clear.append(result["turn"])
            if result["snap_bytes"]:
                self._note_snapshot(result["client"], result["snap_bytes"])
            self._batch_sizes[result["batch"]] += 1
            outcomes.append(self.outcome(entry.ticket, result))
        if outcomes:
            self.pool.turns_done_batch(outcomes)

    def _sweep(self, conn: RespClient) -> None:
        """Requeue turns whose lease died; fail turns nobody can run.

        Workers stamp heartbeats and lease renewals with their own wall
        clock, which the engine never compares against its own: a renewing
        worker rewrites each value every heartbeat period, so a value
        unchanged on the engine's monotonic clock for longer than its
        window is the death signal (:mod:`repro.runtime.liveness`).
        """
        mono = time.monotonic()
        raw_leases: Dict[int, Any] = {}
        for tid_b, lease_b in conn.hgetall(self.cfg.key("leases")).items():
            try:
                raw_leases[int(tid_b)] = lease_b
            except (ValueError, TypeError):
                continue
        heartbeats = conn.hgetall(self.cfg.key("hb"))
        live_after = max(3.0 * self.cfg.heartbeat, 1.0)
        live = sum(not silent(self._hb_seen.see(worker, raw, mono), mono, live_after)
                   for worker, raw in heartbeats.items())
        self._hb_seen.retain(heartbeats)
        with self._entry_lock:
            # a worker holding a fused item holds one lease per turn in it
            busy = {_lease_holder(raw) for raw in raw_leases.values()}
            self._idle_workers = max(0, live - len(busy))
            entries = dict(self._entries)
        for turn_id, entry in entries.items():
            raw = raw_leases.get(turn_id)
            if raw is not None:
                entry.leased = True
                if silent(self._lease_seen.see(turn_id, raw, mono), mono, self.cfg.lease):
                    conn.execute("HDEL", self.cfg.key("leases"), turn_id)
                    del self._lease_seen[turn_id]
                    self._requeue_or_fail(conn, turn_id, entry, (
                        f"worker {_lease_holder(raw)} lost its lease mid-turn "
                        f"(no renewal for {self.cfg.lease:.1f}s)"
                    ))
            elif (not live
                  and mono - entry.submitted > self.cfg.claim):
                self._fail_entry(turn_id, entry, (
                    f"no live workers: turn unclaimed for more than "
                    f"{self.cfg.claim:.1f}s and no worker heartbeat within "
                    f"{live_after:.1f}s"
                ))
        # leases for turns we no longer track are stale leftovers
        for turn_id in raw_leases:
            if turn_id not in entries:
                conn.execute("HDEL", self.cfg.key("leases"), turn_id)
        # completed turns release their lease in the worker's MULTI: track
        # only the leases still held on turns still in flight
        self._lease_seen.retain(raw_leases.keys() & entries.keys())

    def _requeue_or_fail(self, conn: RespClient, turn_id: int,
                         entry: _Entry, reason: str) -> None:
        if entry.requeues < self.cfg.max_requeues:
            entry.requeues += 1
            entry.submitted = time.monotonic()
            entry.leased = False
            self._requeues += 1
            _LOG.warning("requeueing turn %d (attempt %d): %s",
                         turn_id, entry.requeues + 1, reason)
            # front of the queue, alone: the turn already waited its fair
            # share, and the rest of its item is none of its business
            conn.execute("RPUSH", self.cfg.key("turns"), serde.pack_frames([entry.frame]))
        else:
            self._fail_entry(turn_id, entry,
                             f"{reason}; retry budget ({self.cfg.max_requeues}) exhausted")

    def _fail_entry(self, turn_id: int, entry: _Entry, reason: str) -> None:
        with self._entry_lock:
            if self._entries.pop(turn_id, None) is None:
                return  # resolved while we deliberated
        ticket = entry.ticket
        _LOG.error("turn %d (client %d, %s) lost: %s",
                   turn_id, ticket.client, ticket.method, reason)
        self.pool.turn_done(ticket, None, BrokerTurnLost(
            f"client {ticket.client} turn ({ticket.method}) lost: {reason}"
        ))

    def _fail_all(self, exc: Exception) -> None:
        with self._entry_lock:
            entries, self._entries = self._entries, {}
        for entry in entries.values():
            self.pool.turn_done(entry.ticket, None, exc)

    # -- bookkeeping ----------------------------------------------------
    def _note_snapshot(self, client: int, nbytes: int) -> None:
        with self._tally_lock:
            if nbytes:
                self._snap_sizes[client] = nbytes
            else:
                self._snap_sizes.pop(client, None)

    def queue_depth(self) -> int:
        with self._entry_lock:
            return len(self._entries)

    def idle_workers(self) -> int:
        return self._idle_workers

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if not self._started:
            return
        self._started = False
        self._stop.set()
        try:
            conn = self._connect()
        except BrokerUnavailable:
            conn = None
        if conn is not None:
            try:
                conn.execute("SET", self.cfg.key("stop"), "1")
                for _ in range(max(2 * self.cfg.workers, 4)):
                    conn.execute("LPUSH", self.cfg.key("turns"), b"STOP")
            except RespError:
                pass
        if self._collector is not None:
            self._collector.join(timeout=10)
            self._collector = None
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self._procs = []
        self._fail_all(RuntimeError("redis broker shut down with turns in flight"))
        if conn is not None:
            try:
                for name in ("spec", "meta", "turns", "results", "snap",
                             "done", "leases", "hb", "gstate", "stop"):
                    conn.execute("DEL", self.cfg.key(name))
            except RespError:
                pass
            finally:
                conn.close()
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info.update(namespace=self.cfg.namespace(), lease=self.cfg.lease,
                    inflight=MAX_INFLIGHT, fuses=self._runner is not None,
                    batch_sizes=dict(sorted(self._batch_sizes.items())),
                    requeues=self._requeues)
        return info

    @classmethod
    def check_url(cls, url: str) -> None:
        parse_redis_url(url)

    @classmethod
    def worker_link(cls, url: str, worker_id: str) -> "RedisLink":
        return RedisLink(url, worker_id)


class RedisLink(WorkerLink):
    """The worker's half of the turn loop drawn in the module docstring.

    A beat renews the worker's liveness stamp and every lease of the item
    in hand, on a connection of its own, and reports the run over once the
    engine has deleted its namespace.  The claim checks the
    ``done`` hash: a requeued duplicate of a *completed* turn is released
    without running — its result travelled in the transaction that marked
    it done — so retries cannot double-advance client state.
    """

    def __init__(self, url: str, worker_id: str) -> None:
        super().__init__(url, worker_id)
        self.cfg = parse_redis_url(url)
        if not self.cfg.run:
            raise ValueError(
                "worker URL needs the broker's run namespace "
                "(redis://host:port/db?run=<id>); the engine logs it at start"
            )
        self.beat_period = self.cfg.heartbeat
        self._conn: Optional[RespClient] = None
        self._hb_conn: Optional[RespClient] = None
        self._leased: List[int] = []  # the claimed item's turns

    def _connect(self) -> RespClient:
        return RespClient(self.cfg.host, self.cfg.port, db=self.cfg.db,
                          password=self.cfg.password)

    def open(self):
        self._conn = self._connect()
        self._hb_conn = self._connect()
        spec_yaml = self._conn.execute("GET", self.cfg.key("spec"))
        meta_raw = self._conn.execute("GET", self.cfg.key("meta"))
        if spec_yaml is None or meta_raw is None:
            raise RespError(
                f"no experiment published under namespace "
                f"{self.cfg.namespace()!r} — is the engine running?"
            )
        return spec_yaml.decode("utf8"), json.loads(meta_raw).get("num_clients")

    def _leases(self, turn_ids: List[int]) -> List[Any]:
        """``HSET`` field/value pairs leasing ``turn_ids`` to this worker."""
        lease = json.dumps({"worker": self.worker_id,
                            "deadline": time.time() + self.cfg.lease})
        return [v for turn_id in turn_ids for v in (turn_id, lease)]

    def beat(self) -> Dict[str, Any]:
        commands = [("EXISTS", self.cfg.key("meta")),
                    ("HSET", self.cfg.key("hb"), self.worker_id, time.time())]
        leased = self._leased
        if leased:
            commands.append(("HSET", self.cfg.key("leases"), *self._leases(leased)))
        published = self._hb_conn.pipeline(commands)[0]
        # the stop flag and STOP items live only until the engine deletes its
        # namespace; a worker between two pulls then misses both, but its
        # next beat finds the run gone
        return {"stop": not published}

    def next_item(self):
        # the stop check rides in the pull's round trip; an item pulled
        # after the engine said stop has nobody left waiting for it
        wait = 1.0
        stop, item = self._conn.pipeline(
            [("GET", self.cfg.key("stop")), ("BRPOP", self.cfg.key("turns"), wait)],
            timeout=wait + POP_SLACK,
        )
        if stop is not None:
            return self.STOP
        if item is None:
            return None
        return self.STOP if item[1] == self.STOP else serde.unpack_frames(item[1])

    def give_back(self, frames: List[bytes]) -> None:
        self._conn.execute("RPUSH", self.cfg.key("turns"), serde.pack_frames(frames))

    def claim(self, turns, gkeys):
        turn_ids = [turn_id for turn_id, _ in turns]
        commands = [("HMGET", self.cfg.key("done"), *turn_ids),
                    ("HSET", self.cfg.key("leases"), *self._leases(turn_ids)),
                    ("HMGET", self.cfg.key("snap"), *[client for _, client in turns])]
        if gkeys:
            commands.append(("HMGET", self.cfg.key("gstate"), *gkeys))
        replies = self._conn.pipeline(commands)
        done, snaps = replies[0], replies[2]
        self._leased = turn_ids
        # a duplicate of a completed turn (requeued by a lease sweep that
        # raced the ack) must not re-train; the commit just releases it
        snapshots = [None if raw is None or record is not None else serde.decode_snapshot(raw)
                     for raw, record in zip(snaps, done)]
        gstate = dict(zip(gkeys, replies[3])) if gkeys else {}
        return [record is None for record in done], gstate, snapshots

    def commit(self, outcomes) -> None:
        snaps: List[Any] = []
        records: List[Any] = []
        frames = []
        for turn_id, client, snapshot, encode_result in outcomes:
            snap_frame = None if snapshot is None else serde.encode_snapshot(snapshot)
            if snap_frame is not None:
                snaps += [client, snap_frame]
            records += [turn_id, self.worker_id]
            frames.append(encode_result(len(snap_frame) if snap_frame else 0))
        # swap-out + done-records + ack + lease release, atomically and in
        # one round trip: a lease sweep observes each turn either "running"
        # or "fully completed", never a half-acked turn it might requeue
        # against a stale snapshot
        commands = []
        if snaps:
            commands.append(("HSET", self.cfg.key("snap"), *snaps))
        if records:
            commands += [("HSET", self.cfg.key("done"), *records),
                         ("LPUSH", self.cfg.key("results"), serde.pack_frames(frames))]
        commands.append(("HDEL", self.cfg.key("leases"), *self._leased))
        self._conn.multi(commands)
        self._leased = []

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.execute("HDEL", self.cfg.key("hb"), self.worker_id)
            except RespError:
                pass
        for conn in (self._conn, self._hb_conn):
            if conn is not None:
                conn.close()
