"""The worker's half of the ``tcp://`` / ``inproc://`` broker.

``python -m repro worker tcp://host:port`` dials the engine with a
bounded-retry connect — so workers may start *before* the engine binds —
and then, through the one :class:`~repro.runtime.worker.Worker` loop:

1. **joins** with a capability exchange (host, pid, slots) and receives the
   published :class:`~repro.experiment.spec.ExperimentSpec` YAML plus the
   heartbeat/lease contract;
2. **serves turns**: long-poll for a turn frame, run it against the client's
   *member-local* snapshot, post the serde result frame — while the
   worker's heartbeat thread renews the lease through :meth:`ClusterLink.beat`
   on a second channel;
3. **leaves gracefully** on a stop request or the engine's stop flag — the
   in-flight turn finishes, then the member deregisters.

Client state lives here, keyed by client id: a client the member adopts
(fresh assignment or an orphan from an evicted peer) starts from the
published baseline — the cluster's restart semantics.
"""

from __future__ import annotations

import os
import socket
from typing import Any, Dict, List, Optional

from repro.cluster.protocol import decode_control, encode_control, parse_cluster_url, peek_kind
from repro.comm.transport import make_channel
from repro.runtime.broker import WorkerLink

__all__ = ["ClusterLink"]

#: seconds one poll may long-wait on the engine (bounds stop latency)
_POLL_WAIT = 0.5
#: generous dial budget: a worker started before its engine keeps trying
_TCP_CONNECT = {"connect_timeout": 3.0, "connect_retries": 20, "connect_backoff": 0.25}


class ClusterLink(WorkerLink):
    """One joinable cluster member (a process, or a thread in tests)."""

    def __init__(self, url: str, worker_id: str) -> None:
        super().__init__(url, worker_id)
        self.cfg = parse_cluster_url(url)
        self._work = None       # turn channel
        self._control = None    # heartbeat/leave channel
        self._snapshots: Dict[int, Any] = {}

    def _call_control(self, op: str, **meta: Any) -> Dict[str, Any]:
        frame = encode_control(op, node_id=self.worker_id, **meta)
        return decode_control(self._control.call(frame))[1]

    def open(self):
        options = _TCP_CONNECT if self.cfg.kind == "tcp" else {}
        self._work = make_channel(self.cfg.kind, self.cfg.address, **options)
        self._control = make_channel(self.cfg.kind, self.cfg.address, **options)
        caps = {"host": socket.gethostname(), "pid": os.getpid(), "slots": 1}
        reply = self._call_control("join", caps=caps)
        if not reply.get("ok"):
            raise ConnectionError(
                f"cluster join rejected: {reply.get('error', 'unknown reason')}"
            )
        self.beat_period = float(reply.get("heartbeat", 0.5))
        return str(reply["spec"]), int(reply["num_clients"])

    def beat(self) -> Dict[str, Any]:
        return self._call_control("heartbeat")

    def next_item(self) -> Optional[List[bytes]]:
        reply = self._work.call(
            encode_control("poll", node_id=self.worker_id, wait=_POLL_WAIT)
        )
        if peek_kind(reply) == "request":
            return [reply]  # every item is a batch of one on this link
        meta = decode_control(reply)[1]
        if meta.get("stop"):
            return self.STOP
        if not meta.get("ok", True):
            raise ConnectionError(f"the engine no longer lists {self.worker_id} as a member")
        return None

    def claim(self, turns, gkeys):
        # the engine never interns payloads here: frames carry the model
        return [True] * len(turns), {}, [self._snapshots.get(c) for _, c in turns]

    def commit(self, outcomes) -> None:
        for _, client, snapshot, encode_result in outcomes:
            if snapshot is not None:
                self._snapshots[client] = snapshot
            self._work.call(encode_result(0))

    def close(self) -> None:
        # graceful deregistration: best effort, the lease sweep is the
        # backstop if the engine is already gone
        if self._control is not None:
            try:
                self._call_control("leave")
            except (ConnectionError, OSError):
                pass
            self._control.close()
        if self._work is not None:
            self._work.close()
