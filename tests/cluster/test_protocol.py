"""Control-plane codec: control frames and O(1) kind peeking."""

import numpy as np
import pytest

from repro.cluster.protocol import (
    ProtocolError,
    decode_control,
    encode_control,
    peek_kind,
)
from repro.comm.wire import encode_message
from repro.runtime import serde


def test_control_roundtrip():
    frame = encode_control("join", node_id="n1", caps={"slots": 1})
    op, meta = decode_control(frame)
    assert op == "join"
    assert meta == {"node_id": "n1", "caps": {"slots": 1}}


def test_control_roundtrip_empty_meta():
    op, meta = decode_control(encode_control("leave"))
    assert op == "leave"
    assert meta == {}


def test_decode_control_rejects_non_control_kind():
    frame = encode_message("data", {"op": "join"}, {})
    with pytest.raises(ProtocolError, match="expected a control frame"):
        decode_control(frame)


def test_decode_control_rejects_missing_op():
    frame = encode_message("control", {"not_op": 1}, {})
    with pytest.raises(ProtocolError):
        decode_control(frame)


def test_peek_kind_control_and_turn():
    assert peek_kind(encode_control("poll", node_id="n1")) == "control"
    turn = serde.encode_turn(1, 0, "local_update", (None, 1, 2), {})
    assert peek_kind(turn) == "request"


def test_peek_kind_matches_result_frames():
    ok = serde.encode_result(1, 0, {"x": np.zeros(2)}, worker="w")
    err = serde.encode_error(2, 1, ValueError("boom"), traceback_text="tb")
    assert peek_kind(ok) == "response"
    assert peek_kind(err) == "error"


def test_peek_kind_rejects_garbage():
    with pytest.raises(ProtocolError, match="bad magic"):
        peek_kind(b"nope")
    with pytest.raises(ProtocolError, match="bad magic"):
        peek_kind(b"")


def test_peek_kind_rejects_unknown_kind_code():
    frame = bytearray(encode_control("poll"))
    frame[4] = 250  # not a registered kind code
    with pytest.raises(ProtocolError, match="unknown wire kind"):
        peek_kind(bytes(frame))
