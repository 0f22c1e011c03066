"""Control-plane message codec for the live cluster runtime.

The cluster speaks the framework's existing binary wire format
(:mod:`repro.comm.wire`) over the existing transports
(:mod:`repro.comm.transport`): every control message is one
``encode_message("control", {...}, {})`` frame whose meta carries an ``op``
key, and every data-plane frame (a client turn or its result) is the exact
frame :mod:`repro.runtime.serde` already produces for the broker seam —
``kind == "request"`` for turns, ``"response"``/``"error"`` for results.
Reusing the serde frames verbatim is what lets a cluster member replay a
client turn bit-identically to a pool worker.

Ops (node -> coordinator, each answered synchronously on the same channel):

``join``       capability exchange; the reply carries the published spec
               YAML, the cohort size, and the heartbeat/lease contract
``heartbeat``  lease renewal; the reply carries ``stop`` once the run ends
``poll``       ask for work; the reply is either a raw serde turn frame
               (kind ``request``) or a control frame with ``empty: true``
``result``     a raw serde result frame, pushed as-is (no control wrapper)
``leave``      graceful deregistration

Both halves also agree on the URL: ``tcp://host:port`` (``inproc://name`` in
tests) names where the engine listens, and the query string carries the
liveness contract — ``tcp://0.0.0.0:7070?min_nodes=3&join=60&hb=0.5&lease=3``:

``min_nodes``  joining quorum the run waits for (1)
``join``       seconds to wait for that quorum (60)
``hb``         member heartbeat period in seconds (0.5)
``lease``      seconds of silence after which a member is evicted (3; must
               exceed ``hb``)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple
from urllib.parse import urlparse

from repro.comm.wire import MAGIC, MESSAGE_KINDS, WireError, decode_message, encode_message
from repro.runtime.broker import url_fields

_KIND_NAMES = {code: name for name, code in MESSAGE_KINDS.items()}

__all__ = [
    "ProtocolError",
    "ClusterUrl",
    "parse_cluster_url",
    "encode_control",
    "decode_control",
    "peek_kind",
]


class ProtocolError(WireError):
    """A cluster frame that does not follow the control-plane contract."""


@dataclass(frozen=True)
class ClusterUrl:
    """A parsed cluster URL: listen/dial address + the liveness contract."""

    kind: str
    address: str
    min_nodes: int = 1
    join_timeout: float = 60.0
    heartbeat: float = 0.5
    lease: float = 3.0

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError("cluster.min_nodes must be >= 1")
        if self.join_timeout <= 0:
            raise ValueError("cluster.join_timeout must be > 0")
        if self.heartbeat <= 0:
            raise ValueError("cluster.heartbeat must be > 0")
        if self.lease <= self.heartbeat:
            raise ValueError(
                "cluster.lease must exceed cluster.heartbeat (a lease shorter "
                "than one heartbeat period evicts healthy members)"
            )


#: URL query key -> (ClusterUrl field, parser)
_URL_PARAMS = {
    "min_nodes": ("min_nodes", int),
    "join": ("join_timeout", float),
    "hb": ("heartbeat", float),
    "lease": ("lease", float),
}


def parse_cluster_url(url: str) -> ClusterUrl:
    """The one parser for cluster URLs (engine and worker side);
    ``ValueError`` on a bad transport, address, key or value."""
    parsed = urlparse(url)
    if parsed.scheme not in ("tcp", "inproc") or not parsed.netloc:
        raise ValueError(
            "cluster.transport must be 'tcp' or 'inproc' "
            f"(tcp://host:port or inproc://name), got {url!r}"
        )
    if parsed.scheme == "tcp" and parsed.port is None:
        raise ValueError(f"tcp address must be host:port, got {parsed.netloc!r}")
    return ClusterUrl(kind=parsed.scheme, address=parsed.netloc,
                      **url_fields(url, _URL_PARAMS))


def encode_control(op: str, **meta: Any) -> bytes:
    """One control-plane frame: ``op`` plus JSON-safe keyword payload."""
    body: Dict[str, Any] = {"op": str(op)}
    body.update(meta)
    return encode_message("control", body, {})


def decode_control(frame: bytes) -> Tuple[str, Dict[str, Any]]:
    """-> ``(op, meta)``; raises :class:`ProtocolError` on non-control frames."""
    kind, meta, _arrays = decode_message(frame)
    if kind != "control" or "op" not in meta:
        raise ProtocolError(f"expected a control frame with an op, got kind={kind!r}")
    op = str(meta.pop("op"))
    return op, meta


def peek_kind(frame: bytes) -> str:
    """The wire kind from a frame's fixed header, without decoding the body
    (turn frames carry whole model payloads — peeking must stay O(1))."""
    if len(frame) < 5 or frame[:4] != MAGIC:
        raise ProtocolError("not a wire frame (bad magic)")
    kind = _KIND_NAMES.get(frame[4])
    if kind is None:
        raise ProtocolError(f"unknown wire kind code {frame[4]}")
    return kind
