"""Wire serialization for broker transport: snapshots, turns, results.

Distributed brokers move three payload families between processes — a
logical client's :class:`~repro.engine.client_state.ClientSnapshot`, a turn
request (method + args), and a turn result — all of which are trees of
plain containers, numpy arrays, and rng bit-generator states.  This module
maps such trees onto the framework's existing binary wire format
(:mod:`repro.comm.wire`): arrays travel as raw typed buffers in the frame's
array section (bit-exact, no pickling), everything else as JSON metadata
with tagged markers for the Python types JSON cannot express (tuples,
bytes, numpy scalars).  ``decode(encode(x))`` reproduces ``x`` exactly —
including dtypes, float bits, and arbitrarily large rng-state integers —
which is what lets a redis worker process replay a client's turn
bit-identically to the in-process pool (pinned by the hypothesis suite in
``tests/runtime/test_snapshot_wire.py``).
"""

from __future__ import annotations

import base64
import struct
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.comm.wire import WireError, decode_message, encode_message
from repro.engine.client_state import ClientSnapshot

__all__ = [
    "GSTATE_KEY",
    "pack_tree",
    "unpack_tree",
    "encode_snapshot",
    "decode_snapshot",
    "encode_payload",
    "decode_payload",
    "encode_turn",
    "decode_turn",
    "encode_result",
    "encode_error",
    "decode_result",
    "pack_frames",
    "unpack_frames",
]

#: sentinel key for an interned global-state payload: a ``local_update``
#: turn whose first argument is ``{GSTATE_KEY: <int>}`` tells the worker to
#: fetch the payload once from the broker's ``gstate`` hash instead of
#: carrying a full model copy in every turn frame (the redis round-decode
#: cache).  ``pack_tree`` passes the dict through untouched — the key is
#: not one of its markers — so the sentinel survives the turn codec.
GSTATE_KEY = "__gstate__"

#: marker keys for JSON-hostile types; a real mapping whose key set collides
#: is escaped under _MAP so user data can never be mistaken for a marker
_ARRAY = "__nd__"
_SCALAR = "__np__"
_TUPLE = "__tuple__"
_BYTES = "__bytes__"
_MAP = "__map__"
_MARKERS = frozenset((_ARRAY, _SCALAR, _TUPLE, _BYTES, _MAP))


def pack_tree(obj: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Split ``obj`` into (json-safe tree, array payloads).

    Arrays and numpy scalars are replaced by markers pointing into the
    returned array dict; tuples and bytes get tagged so :func:`unpack_tree`
    restores the exact Python types.
    """
    arrays: Dict[str, np.ndarray] = {}

    def walk(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            slot = f"a{len(arrays)}"
            arrays[slot] = value
            return {_ARRAY: slot}
        if isinstance(value, np.generic):
            # 0-d array round-trips the scalar's exact dtype and bits
            slot = f"a{len(arrays)}"
            arrays[slot] = np.asarray(value)
            return {_SCALAR: slot}
        if isinstance(value, (bytes, bytearray)):
            return {_BYTES: base64.b64encode(bytes(value)).decode("ascii")}
        if isinstance(value, tuple):
            return {_TUPLE: [walk(v) for v in value]}
        if isinstance(value, list):
            return [walk(v) for v in value]
        if isinstance(value, Mapping):
            out = {}
            for k, v in value.items():
                if not isinstance(k, str):
                    raise WireError(
                        f"cannot serialize mapping key {k!r} ({type(k).__name__}): "
                        "broker payload keys must be strings"
                    )
                out[k] = walk(v)
            if _MARKERS & out.keys():
                return {_MAP: out}
            return out
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        raise WireError(
            f"cannot serialize {type(value).__name__} for broker transport"
        )

    return walk(obj), arrays


def unpack_tree(tree: Any, arrays: Mapping[str, np.ndarray]) -> Any:
    """Inverse of :func:`pack_tree`."""

    def walk(value: Any) -> Any:
        if isinstance(value, Mapping):
            if _ARRAY in value:
                return arrays[value[_ARRAY]]
            if _SCALAR in value:
                return arrays[value[_SCALAR]][()]
            if _BYTES in value:
                return base64.b64decode(value[_BYTES])
            if _TUPLE in value:
                return tuple(walk(v) for v in value[_TUPLE])
            if _MAP in value:
                return {k: walk(v) for k, v in value[_MAP].items()}
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, list):
            return [walk(v) for v in value]
        return value

    return walk(tree)


# --------------------------------------------------------------------------
# snapshots: what the ClientStateStore shards behind the broker
# --------------------------------------------------------------------------

def encode_snapshot(snapshot: ClientSnapshot) -> bytes:
    """One :class:`ClientSnapshot` as a wire frame."""
    tree, arrays = pack_tree({
        "algo": snapshot.algo,
        "model": dict(snapshot.model),
        "fault_rng": snapshot.fault_rng,
        "loader_rng": snapshot.loader_rng,
        "compressor": snapshot.compressor,
        "dp": snapshot.dp,
        "stats": snapshot.stats,
        "turns": snapshot.turns,
    })
    return encode_message("data", {"snapshot": tree}, arrays)


def decode_snapshot(frame: bytes) -> ClientSnapshot:
    kind, meta, arrays = decode_message(frame)
    if kind != "data" or "snapshot" not in meta:
        raise WireError(f"frame is not a snapshot (kind={kind!r})")
    return ClientSnapshot(**unpack_tree(meta["snapshot"], arrays))


# --------------------------------------------------------------------------
# interned payloads: the per-round global state, shipped once per version
# --------------------------------------------------------------------------

def encode_payload(payload: Any) -> bytes:
    """One broadcast payload (the server's per-round model) as a frame."""
    tree, arrays = pack_tree(payload)
    return encode_message("data", {"payload": tree}, arrays)


def decode_payload(frame: bytes) -> Any:
    kind, meta, arrays = decode_message(frame)
    if kind != "data" or "payload" not in meta:
        raise WireError(f"frame is not an interned payload (kind={kind!r})")
    return unpack_tree(meta["payload"], arrays)


# --------------------------------------------------------------------------
# turns and results: the broker queue's message bodies
# --------------------------------------------------------------------------

def encode_turn(
    turn_id: int, client: int, method: str, args: tuple, kwargs: dict
) -> bytes:
    tree, arrays = pack_tree({"args": tuple(args), "kwargs": dict(kwargs)})
    meta = {"turn": int(turn_id), "client": int(client), "method": str(method),
            "payload": tree}
    return encode_message("request", meta, arrays)


def decode_turn(frame: bytes) -> Tuple[int, int, str, tuple, dict]:
    kind, meta, arrays = decode_message(frame)
    if kind != "request":
        raise WireError(f"frame is not a turn request (kind={kind!r})")
    payload = unpack_tree(meta["payload"], arrays)
    return (int(meta["turn"]), int(meta["client"]), str(meta["method"]),
            tuple(payload["args"]), dict(payload["kwargs"]))


def encode_result(
    turn_id: int, client: int, value: Any, *, snap_bytes: int = 0, worker: str = "",
    batch: int = 1,
) -> bytes:
    """``batch``: the turns in the stacked pass that ran this one (1: alone)."""
    tree, arrays = pack_tree(value)
    meta = {"turn": int(turn_id), "client": int(client), "ok": True,
            "payload": tree, "snap_bytes": int(snap_bytes), "worker": worker,
            "batch": int(batch)}
    return encode_message("response", meta, arrays)


def encode_error(
    turn_id: int, client: int, exc: BaseException, *,
    traceback_text: str = "", snap_bytes: int = 0, worker: str = "", batch: int = 1,
) -> bytes:
    meta = {
        "turn": int(turn_id), "client": int(client), "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc),
                  "traceback": traceback_text},
        "snap_bytes": int(snap_bytes), "worker": worker, "batch": int(batch),
    }
    return encode_message("error", meta, {})


def decode_result(frame: bytes) -> Dict[str, Any]:
    """-> {turn, client, ok, value?/error?, snap_bytes, worker, batch}."""
    kind, meta, arrays = decode_message(frame)
    if kind not in ("response", "error"):
        raise WireError(f"frame is not a turn result (kind={kind!r})")
    out: Dict[str, Any] = {
        "turn": int(meta["turn"]), "client": int(meta["client"]),
        "ok": bool(meta["ok"]), "snap_bytes": int(meta.get("snap_bytes", 0)),
        "worker": str(meta.get("worker", "")), "batch": int(meta.get("batch", 1)),
    }
    if out["ok"]:
        out["value"] = unpack_tree(meta["payload"], arrays)
    else:
        out["error"] = dict(meta["error"])
    return out


# --------------------------------------------------------------------------
# queue items: several turn (or result) frames travelling as one
# --------------------------------------------------------------------------

def pack_frames(frames: Sequence[bytes]) -> bytes:
    """Frames as one queue item: count, lengths, then the frames back to back."""
    header = struct.pack(f"<I{len(frames)}Q", len(frames), *map(len, frames))
    return b"".join([header, *frames])


def unpack_frames(item: bytes) -> List[bytes]:
    """Inverse of :func:`pack_frames`."""
    try:
        (count,) = struct.unpack_from("<I", item)
        sizes = struct.unpack_from(f"<{count}Q", item, 4)
    except struct.error as exc:
        raise WireError(f"truncated queue item ({len(item)} bytes)") from exc
    frames, pos = [], 4 + 8 * count
    for size in sizes:
        frames.append(item[pos:pos + size])
        pos += size
    if pos != len(item):
        raise WireError(f"queue item holds {len(item)} bytes, its header {pos}")
    return frames
