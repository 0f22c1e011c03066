"""The ``repro worker`` process: serves client turns for a remote engine.

Started as ``python -m repro worker <url>`` with the URL of any distributed
broker — ``redis://host:port/0?run=<ns>`` (or auto-spawned by
:class:`~repro.runtime.redis.RedisBroker` with ``?workers=N``) to pull turns
from a redis queue, ``tcp://host:port`` to join a live engine as a cluster
member.  The scheme picks the :class:`~repro.runtime.broker.WorkerLink`
through the broker registry; everything else is one loop.  On startup the
worker fetches the experiment spec the engine published, rebuilds an
identical trainer node from the same seeded factories the engine uses —
which is what makes its turns bit-identical to in-process execution — and
loops::

    next turn -> claim -> swap in the client's snapshot -> run the method
    -> swap out -> commit {snapshot, result}

The link heartbeats on its own thread; if the process dies mid-turn the
engine notices (an expired lease requeues the turn on redis, an evicted
member's turns fail as lost peers on tcp).

Exit codes of :func:`run_worker`: 0 after a stop request (the engine's stop
flag, SIGTERM/SIGINT, the turn cap), 2 when startup failed, 3 when the
serve loop ended because the server was lost or revoked this worker.

Environment knobs (used by the regression tests):

``REPRO_WORKER_TURN_DELAY``
    Seconds to sleep after claiming a turn and before training — widens
    the kill window for dead-worker tests.
``REPRO_WORKER_MAX_TURNS``
    Exit after this many turns (crash-recovery tests).
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import traceback
from collections import OrderedDict
from typing import Any, Optional

from repro.runtime import serde
from repro.runtime.broker import broker_class
from repro.utils.logging import get_logger

_LOG = get_logger("worker")

__all__ = ["Worker", "run_worker"]


class Worker:
    """One turn-serving worker bound to a distributed broker's URL."""

    def __init__(self, url: str, worker_id: Optional[str] = None) -> None:
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.link = broker_class(url).worker_link(url, self.worker_id)
        # a graceful stop request (signal or stop()) only ends the pull
        # loop: the link keeps heartbeating until the in-flight turn has
        # been committed and run() closes it
        self._stop_requested = threading.Event()
        self.node: Any = None
        self.provider: Any = None
        self.baseline: Any = None
        self.turns_run = 0
        #: True once the serve loop ended because the server went away
        self.lost = False
        self._turn_id: Optional[int] = None
        self._stage = "start"
        # decoded global-state payloads, keyed by the engine's intern key;
        # a round's whole cohort shares one entry, async policies keep a
        # few recent versions warm
        self._gstate_cache: "OrderedDict[int, Any]" = OrderedDict()
        self._gstate_cache_cap = 4

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
        try:
            link.start()
            _LOG.info("worker %s serving %s", self.worker_id, link.url)
            while max_turns is None or self.turns_run < max_turns:
                if self._stop_requested.is_set():
                    break  # the in-flight turn, if any, already committed
                self._stage = "poll"
                frame = link.next_turn()
                if frame is None:
                    continue
                if frame == link.STOP:
                    break
                self._serve(frame)
        except (ConnectionError, OSError) as exc:
            self.lost = True
            _LOG.error(
                "worker %s lost its server (last turn %s, stage %s): %s",
                self.worker_id, self._turn_id, self._stage, exc,
            )
        finally:
            link.close()
        return self.turns_run

    def stop(self) -> None:
        """Request a graceful shutdown: finish the in-flight turn, then exit."""
        self._stop_requested.set()

    def _resolve_gstate(self, args: tuple) -> tuple:
        """Swap an interned-payload sentinel for the decoded global state.

        The engine ships each dispatch epoch's model to the broker once and
        sends ``{GSTATE_KEY: key}`` in the turn frame; decoding it once per
        key (instead of once per turn) is the worker half of the
        round-decode cache.  The decoded payload is shared across turns and
        must be treated as read-only — same contract as the in-process
        pool, where one payload dict fans out to the whole cohort.
        """
        head = args[0] if args else None
        if not (isinstance(head, dict) and len(head) == 1
                and serde.GSTATE_KEY in head):
            return args
        gkey = int(head[serde.GSTATE_KEY])
        payload = self._gstate_cache.get(gkey)
        if payload is None:
            frame = self.link.gstate(gkey)
            if frame is None:
                # the engine prunes only keys no in-flight turn references,
                # so a miss means the run is gone or the namespace was wiped
                raise RuntimeError(
                    f"interned global state {gkey} missing from broker"
                )
            payload = serde.decode_payload(frame)
            self._gstate_cache[gkey] = payload
            while len(self._gstate_cache) > self._gstate_cache_cap:
                self._gstate_cache.popitem(last=False)
        else:
            self._gstate_cache.move_to_end(gkey)
        return (payload,) + tuple(args[1:])

    def _serve(self, frame: bytes) -> None:
        link = self.link
        turn_id, client, method, args, kwargs = serde.decode_turn(frame)
        self._turn_id, self._stage = turn_id, "claim"
        if not link.claim(turn_id):
            return
        delay = float(os.environ.get("REPRO_WORKER_TURN_DELAY", "0") or 0)
        if delay:
            time.sleep(delay)
        value = error = snapshot = None
        try:
            self._stage = "swap-in"
            args = self._resolve_gstate(args)
            previous = link.load_snapshot(client)
            needs_data = method in ("local_update", "run_round")
            dataset = self.provider.view(client) if needs_data else None
            self._stage = "train"
            value, error, snapshot = self.node.run_client_turn(
                client, previous, dataset, self.baseline, method, args, kwargs
            )
        except (ConnectionError, OSError):
            raise  # the link died under the swap-in: nothing to report to
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            error = exc
        self._stage = "commit"
        link.commit(
            turn_id, client, snapshot,
            lambda snap_bytes: self._encode_result(turn_id, client, value, error, snap_bytes),
        )
        self.turns_run += 1

    def _encode_result(self, turn_id: int, client: int, value: Any,
                       error: Optional[Exception], snap_bytes: int) -> bytes:
        if error is None:
            try:
                return serde.encode_result(
                    turn_id, client, value, snap_bytes=snap_bytes, worker=self.worker_id
                )
            except Exception as exc:  # noqa: BLE001 - an unencodable value fails the turn
                error = exc
        trace = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        return serde.encode_error(
            turn_id, client, error, traceback_text=trace,
            snap_bytes=snap_bytes, worker=self.worker_id,
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

    # graceful shutdown: SIGTERM/SIGINT finish the in-flight turn (its
    # commit acks the result and releases the lease), then the run loop
    # exits and the link deregisters — nothing for the engine to requeue
    def _graceful(signum, frame):  # noqa: ARG001 - signal handler signature
        _LOG.info(
            "worker %s received signal %d, finishing current turn",
            worker.worker_id, signum,
        )
        worker.stop()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)

    worker.run(max_turns=max_turns)
    _LOG.info("worker %s exiting after %d turns", worker.worker_id, worker.turns_run)
    return 3 if worker.lost else 0
