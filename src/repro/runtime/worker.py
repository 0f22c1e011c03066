"""The ``repro worker`` process: serves client turns for a remote engine.

Started as ``python -m repro worker <url>`` with the URL of a distributed
broker (or auto-spawned by it with ``?workers=N``):
``redis://host:port/0?run=<ns>`` to pull turns from a redis server,
``tcp://host:port`` to pull them from the server a ``tcp://`` engine hosts —
the same :class:`~repro.runtime.redis.RedisLink` either way, picked through
the broker registry; everything else is one loop.  On startup the worker
fetches the experiment spec the engine published, rebuilds an
identical trainer node from the same seeded factories the engine uses —
which is what makes its turns bit-identical to in-process execution — and
loops over queue items, each a batch of one or more turns::

    next item -> claim every turn (and fetch their snapshots) -> run the
    fusable ones as one stacked pass, the rest one by one -> commit
    {snapshots, results}

A configuration the engine cannot fuse only ever arrives one turn per item.
Beside the loop runs the worker's one heartbeat thread
(:class:`~repro.runtime.liveness.Heartbeater`): it calls the link's
``beat`` every period, and the loop ends cleanly once a beat hears the
engine's stop flag, or as lost once beats fail or are rejected.  If the
process dies mid-item the engine notices by the one liveness rule — a lease
unchanged for longer than its window — and requeues each of the item's
turns, which a survivor reruns from the client's stored snapshot.

Exit codes of :func:`run_worker`: 0 after a stop request (the engine's stop
flag, SIGTERM/SIGINT — the claimed item commits first — or the turn cap),
2 when startup failed, 3 when the serve loop ended because the server was
lost.

Environment knobs (used by the regression tests):

``REPRO_WORKER_TURN_DELAY``
    Seconds to sleep once per claimed item, after claiming and before
    training — widens the kill window for dead-worker tests.
``REPRO_WORKER_MAX_TURNS``
    Exit after running this many turns (crash-recovery tests); the turns of
    an item past the cap go back to the front of the queue unclaimed.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import traceback
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.runtime import serde
from repro.runtime.broker import broker_class
from repro.runtime.fused import FusedTurnRunner
from repro.runtime.liveness import Heartbeater
from repro.utils.logging import get_logger

_LOG = get_logger("worker")

__all__ = ["Worker", "run_worker"]


class _Turn(NamedTuple):
    """One decoded turn frame; also the ticket shape the fused runner reads."""

    turn_id: int
    client: int
    method: str
    args: tuple
    kwargs: dict


class Worker:
    """One turn-serving worker bound to a distributed broker's URL."""

    def __init__(self, url: str, worker_id: Optional[str] = None) -> None:
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.link = broker_class(url).worker_link(url, self.worker_id)
        # a graceful stop request (signal or stop()) only ends the pull
        # loop: the heartbeat keeps the claimed item leased until it has been
        # committed and run() closes the link
        self._stop_requested = threading.Event()
        self.node: Any = None
        self.provider: Any = None
        self.baseline: Any = None
        #: the stacked-pass runner (None: the configuration does not fuse)
        self.runner: Optional[FusedTurnRunner] = None
        self.turns_run = 0
        #: True once the serve loop ended because the server went away
        self.lost = False
        self._turn_ids: Optional[List[int]] = None
        self._stage = "start"
        # decoded global-state payloads of the last item, keyed by the
        # engine's intern key: a round's whole cohort shares one entry, an
        # async batch brings one per version it trained on
        self._gstate_cache: Dict[int, Any] = {}

    def load(self) -> None:
        """Open the link, fetch the published spec, build the trainer."""
        from repro.experiment import spec as spec_mod
        from repro.topology.base import NodeRole, NodeSpec

        spec_yaml, num_clients = self.link.open()
        spec = spec_mod.ExperimentSpec.from_yaml(spec_yaml)
        datamodule = spec_mod.resolve_datamodule(spec)
        if num_clients is None:
            num_clients = spec_mod.resolve_topology(spec).trainer_count()
        # pure functions of (spec, cohort, classes): this process derives
        # the same partition and attacker set the engine (and every other
        # worker) derived
        attack_plan = spec_mod.resolve_attack_plan(spec, num_clients, datamodule.num_classes)
        self.provider = spec_mod.resolve_data_provider(spec, datamodule, num_clients)
        # the engine's pool-worker construction exactly: trainer role, no
        # mounted shard (data views are mounted per turn)
        self.node = spec_mod.resolve_node_fn(spec, datamodule, attack_plan)(
            NodeSpec(name=f"worker_{self.worker_id}", index=1_000_000, role=NodeRole.TRAINER)
        )
        self.node.setup_local()
        self.baseline = self.node.pool_baseline()
        self.runner = FusedTurnRunner.build(self.node.fusion_context())

    # ------------------------------------------------------------------
    # the turn loop
    # ------------------------------------------------------------------
    def run(self, max_turns: Optional[int] = None) -> int:
        """Serve turns until stopped or the server is lost; returns turns
        completed (``self.lost`` tells the two endings apart)."""
        if self.node is None:
            self.load()
        link = self.link
        env_cap = os.environ.get("REPRO_WORKER_MAX_TURNS")
        if max_turns is None and env_cap:
            max_turns = int(env_cap)
        heart = Heartbeater(link.beat, link.beat_period)
        try:
            heart.start()
            _LOG.info("worker %s serving %s", self.worker_id, link.url)
            while max_turns is None or self.turns_run < max_turns:
                if self._stop_requested.is_set() or heart.stopped.is_set():
                    break  # the claimed item, if any, already committed
                self._stage = "poll"
                if heart.lost.is_set():
                    raise ConnectionError(
                        "heartbeats failed: the engine is unreachable"
                    )
                frames = link.next_item()
                if frames is None:
                    continue
                if frames is link.STOP:
                    break
                if max_turns is not None and len(frames) > max_turns - self.turns_run:
                    keep = max_turns - self.turns_run
                    link.give_back(frames[keep:])
                    frames = frames[:keep]
                self._serve(frames)
        except (ConnectionError, OSError) as exc:
            if heart.stopped.is_set():
                # the engine said stop, then went away while this item
                # trained: nobody is left waiting for its results
                _LOG.info("worker %s: engine gone after its stop flag (%s)",
                          self.worker_id, exc)
            else:
                self.lost = True
                _LOG.error(
                    "worker %s lost its server (last turn %s, stage %s): %s",
                    self.worker_id, self._turn_ids, self._stage, exc,
                )
        finally:
            heart.stop()
            link.close()
        return self.turns_run

    def stop(self) -> None:
        """Request a graceful shutdown: finish the claimed item, then exit."""
        self._stop_requested.set()

    @staticmethod
    def _gstate_key(args: tuple) -> Optional[int]:
        """The intern key of an interned-payload sentinel heading ``args``."""
        head = args[0] if args else None
        if isinstance(head, dict) and len(head) == 1 and serde.GSTATE_KEY in head:
            return int(head[serde.GSTATE_KEY])
        return None

    def _serve(self, frames: List[bytes]) -> None:
        """One queue item: claim, run, commit.

        The engine ships each dispatch epoch's model to the broker once and
        the turn frames carry ``{GSTATE_KEY: key}``; the claim fetches the
        keys this worker has not decoded yet, and each is decoded once per
        item (the worker half of the round-decode cache).  A decoded payload
        is shared across turns and must be treated as read-only — same
        contract as the in-process pool, where one payload dict fans out to
        the whole cohort.
        """
        link = self.link
        turns = [_Turn(*serde.decode_turn(frame)) for frame in frames]
        self._turn_ids, self._stage = [t.turn_id for t in turns], "claim"
        keys = {k for k in map(self._gstate_key, (t.args for t in turns)) if k is not None}
        runnable, fetched, snapshots = link.claim(
            [(t.turn_id, t.client) for t in turns],
            sorted(k for k in keys if k not in self._gstate_cache),
        )
        delay = float(os.environ.get("REPRO_WORKER_TURN_DELAY", "0") or 0)
        if delay:
            time.sleep(delay)
        self._stage = "swap-in"
        cache = {k: self._gstate_cache[k] for k in keys if k in self._gstate_cache}
        for key, frame in fetched.items():
            # the engine prunes only keys no in-flight turn references, so a
            # miss means the run is gone or the namespace was wiped; the turns
            # that need it fail, the rest of the item runs
            if frame is not None:
                cache[key] = serde.decode_payload(frame)
        self._gstate_cache = cache
        jobs = []
        for turn, ok, snapshot in zip(turns, runnable, snapshots):
            key = self._gstate_key(turn.args)
            if key in cache:
                turn = turn._replace(args=(cache[key],) + turn.args[1:])
            if ok:
                jobs.append((turn, snapshot))
        outcomes = self._run(jobs)
        self._stage = "commit"
        link.commit([
            (t.turn_id, t.client, snapshot,
             lambda snap_bytes, t=t, value=value, error=error, batch=batch:
                 self._encode_result(t.turn_id, t.client, value, error, snap_bytes, batch))
            for (t, _), (value, error, snapshot, batch) in zip(jobs, outcomes)
        ])
        self.turns_run += len(jobs)

    def _run(self, jobs: List[Tuple[_Turn, Any]]) -> List[Tuple[Any, Any, Any, int]]:
        """``(value, error, snapshot, batch size)`` per ``(turn, stored snapshot)``
        job: fusable turns as one stacked pass (:meth:`FusedTurnRunner.run_or_fallback`),
        the rest one at a time."""
        outcomes: List[Any] = [None] * len(jobs)
        fused = [i for i, (turn, _) in enumerate(jobs)
                 if self.runner is not None and self._gstate_key(turn.args) is None
                 and self.runner.turn_eligible(turn)]
        if len(fused) > 1:
            self._stage = "train"
            batch = [jobs[i] + (self.provider.view(jobs[i][0].client),) for i in fused]
            results = self.runner.run_or_fallback(
                batch, self.baseline, lambda job: self._run_one(job[0], job[1]))
            for i, outcome in zip(fused, results):
                outcomes[i] = outcome
        for i, (turn, snapshot) in enumerate(jobs):
            if outcomes[i] is None:
                outcomes[i] = self._run_one(turn, snapshot) + (1,)
        return outcomes

    def _run_one(self, turn: _Turn, previous: Any) -> Tuple[Any, Any, Any]:
        value = error = snapshot = None
        try:
            self._stage = "swap-in"
            key = self._gstate_key(turn.args)
            if key is not None:
                raise RuntimeError(f"interned global state {key} missing from broker")
            needs_data = turn.method in ("local_update", "run_round")
            dataset = self.provider.view(turn.client) if needs_data else None
            self._stage = "train"
            value, error, snapshot = self.node.run_client_turn(
                turn.client, previous, dataset, self.baseline, turn.method, turn.args, turn.kwargs
            )
        except (ConnectionError, OSError):
            raise  # the link died under the swap-in: nothing to report to
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            error = exc
        return value, error, snapshot

    def _encode_result(self, turn_id: int, client: int, value: Any,
                       error: Optional[Exception], snap_bytes: int, batch: int) -> bytes:
        if error is None:
            try:
                return serde.encode_result(
                    turn_id, client, value, snap_bytes=snap_bytes, worker=self.worker_id,
                    batch=batch,
                )
            except Exception as exc:  # noqa: BLE001 - an unencodable value fails the turn
                error = exc
        trace = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        return serde.encode_error(
            turn_id, client, error, traceback_text=trace,
            snap_bytes=snap_bytes, worker=self.worker_id, batch=batch,
        )


def run_worker(url: str, worker_id: Optional[str] = None,
               max_turns: Optional[int] = None) -> int:
    """CLI entrypoint (``python -m repro worker <url>``); returns exit code."""
    worker = None
    try:
        worker = Worker(url, worker_id=worker_id)
        worker.load()
    except (ConnectionError, ValueError) as exc:
        _LOG.error("worker startup failed: %s", exc)
        if worker is not None:
            worker.link.close()
        return 2

    # graceful shutdown: SIGTERM/SIGINT finish the claimed item (its commit
    # acks the results and releases the leases), then the run loop exits
    # and the link deregisters — nothing for the engine to requeue
    def _graceful(signum, frame):  # noqa: ARG001 - signal handler signature
        _LOG.info(
            "worker %s received signal %d, finishing the claimed item",
            worker.worker_id, signum,
        )
        worker.stop()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)

    worker.run(max_turns=max_turns)
    _LOG.info("worker %s exiting after %d turns", worker.worker_id, worker.turns_run)
    return 3 if worker.lost else 0
