"""Binary wire format: the protobuf substitute.

Frame layout (little-endian)::

    MAGIC  b"OFD1"                      4 bytes
    kind   uint8                        message kind code
    mlen   uint32                       metadata length
    nar    uint16                       number of array payloads
    meta   mlen bytes                   JSON-encoded metadata (no arrays)
    per array:
        klen  uint16  key bytes length
        key   klen bytes (utf8)
        dt    uint8   dtype code
        nd    uint8   ndim
        shape nd * uint32
        blen  uint64  raw buffer length
        buf   blen bytes (C-contiguous array data)

Arrays travel as raw buffers (no pickling) so serialization cost scales with
payload size the way a real protobuf/gRPC deployment's does, and the decoder
never executes arbitrary code.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Dict, Mapping, Tuple

import numpy as np

__all__ = ["encode_message", "decode_message", "WireError", "MESSAGE_KINDS"]

MAGIC = b"OFD1"

MESSAGE_KINDS = {
    "data": 0,
    "control": 1,
    "request": 2,
    "response": 3,
    "ack": 4,
    "error": 5,
}
_KIND_NAMES = {v: k for k, v in MESSAGE_KINDS.items()}

_DTYPES = [
    np.dtype("float32"),
    np.dtype("float64"),
    np.dtype("int8"),
    np.dtype("int16"),
    np.dtype("int32"),
    np.dtype("int64"),
    np.dtype("uint8"),
    np.dtype("uint16"),
    np.dtype("uint32"),
    np.dtype("uint64"),
    np.dtype("bool"),
    np.dtype("complex64"),
    # appended (never reordered — codes are wire format): half precision is
    # the natural pairing with the compression codecs, complex128 completes
    # the complex family
    np.dtype("float16"),
    np.dtype("complex128"),
]
_DTYPE_CODE = {dt: i for i, dt in enumerate(_DTYPES)}
#: ``json.dumps(meta, separators=...)`` builds this encoder on every call
_encode_meta = json.JSONEncoder(separators=(",", ":")).encode


class WireError(ValueError):
    """Raised on malformed frames."""


def encode_message(kind: str, meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize one message to a byte frame."""
    if kind not in MESSAGE_KINDS:
        raise WireError(f"unknown message kind {kind!r}")
    meta_bytes = _encode_meta(dict(meta)).encode("utf8")
    parts = [MAGIC, struct.pack("<BIH", MESSAGE_KINDS[kind], len(meta_bytes), len(arrays)), meta_bytes]
    for key, arr in arrays.items():
        if type(arr) is not np.ndarray:
            arr = np.asarray(arr)
        code = _DTYPE_CODE.get(arr.dtype)
        if code is None:
            raise WireError(f"unsupported array dtype {arr.dtype} for key {key!r}")
        kb = key.encode("utf8")
        # a C-contiguous array joins the frame through the buffer protocol;
        # any other layout is copied out in C order
        parts.append(struct.pack(f"<H{len(kb)}sBB{arr.ndim}IQ", len(kb), kb, code,
                                 arr.ndim, *arr.shape, arr.nbytes))
        parts.append(arr if arr.flags.c_contiguous else arr.tobytes())
    return b"".join(parts)


def decode_message(frame: bytes) -> Tuple[str, Dict[str, Any], Dict[str, np.ndarray]]:
    """Inverse of :func:`encode_message` -> (kind, meta, arrays)."""
    if frame[:4] != MAGIC:
        raise WireError("bad magic")
    kind_code, mlen, nar = struct.unpack_from("<BIH", frame, 4)
    if kind_code not in _KIND_NAMES:
        raise WireError(f"unknown kind code {kind_code}")
    offset = 4 + struct.calcsize("<BIH")
    meta = json.loads(frame[offset : offset + mlen].decode("utf8"))
    offset += mlen
    arrays: Dict[str, np.ndarray] = {}
    for _ in range(nar):
        (klen,) = struct.unpack_from("<H", frame, offset)
        offset += 2
        key = frame[offset : offset + klen].decode("utf8")
        offset += klen
        dt_code, nd = struct.unpack_from("<BB", frame, offset)
        header = struct.unpack_from(f"<{nd}IQ", frame, offset + 2)
        shape, blen = header[:nd], header[nd]
        offset += 10 + 4 * nd
        if dt_code >= len(_DTYPES):
            raise WireError(f"array {key!r}: unknown dtype code {dt_code}")
        dtype = _DTYPES[dt_code]
        expected = math.prod(shape) * dtype.itemsize  # prod(()) == 1 covers 0-d
        if blen != expected:
            raise WireError(f"array {key!r}: buffer {blen}B but shape {shape} implies {expected}B")
        # a view of the frame, then the one copy the array owns
        count = blen // dtype.itemsize
        arrays[key] = np.frombuffer(frame, dtype, count, offset).reshape(shape).copy()
        offset += blen
    if offset != len(frame):
        raise WireError(f"{len(frame) - offset} trailing bytes")
    return _KIND_NAMES[kind_code], meta, arrays
