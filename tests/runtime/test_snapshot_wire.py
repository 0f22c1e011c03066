"""Snapshot/turn wire codecs: ``decode(encode(x)) == x``, bit for bit.

A redis worker replays a client's turn from nothing but wire frames, so
the serde layer must reproduce every payload exactly — array dtypes and
float bits, tuples vs. lists, bytes, numpy scalars, and the arbitrarily
large integers inside rng bit-generator states.  Property-based over the
tree grammar the brokers actually ship.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.wire import WireError
from repro.engine.client_state import ClientSnapshot
from repro.runtime.serde import (
    decode_result,
    decode_snapshot,
    decode_turn,
    encode_error,
    encode_result,
    encode_snapshot,
    encode_turn,
    pack_frames,
    pack_tree,
    unpack_frames,
    unpack_tree,
)

_DTYPES = ["float64", "float32", "int64", "int32", "uint32", "uint8", "bool"]


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=0, max_size=3)))
    if dtype.kind == "f":
        elems = st.floats(allow_nan=False, width=32)
    elif dtype.kind == "b":
        elems = st.booleans()
    else:
        info = np.iinfo(dtype)
        elems = st.integers(int(info.min), int(info.max))
    flat = draw(st.lists(elems, min_size=int(np.prod(shape, dtype=int)),
                         max_size=int(np.prod(shape, dtype=int))))
    return np.array(flat, dtype=dtype).reshape(shape)


def scalars():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**400), 2**400),  # rng states carry >64-bit ints
        st.floats(allow_nan=False),
        st.text(max_size=20),
        st.binary(max_size=32),
        arrays(),
        st.sampled_from([np.float32(1.5), np.int64(-7), np.uint64(2**63)]),
    )


def trees():
    return st.recursive(
        scalars(),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=20,
    )


def assert_tree_equal(a, b):
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            assert_tree_equal(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_tree_equal(x, y)
    elif isinstance(a, float):
        # bit-exact, including signed zero
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    else:
        assert a == b


@settings(max_examples=150, deadline=None)
@given(trees())
def test_pack_unpack_roundtrip(tree):
    packed, arrays_out = pack_tree(tree)
    assert_tree_equal(unpack_tree(packed, arrays_out), tree)


def test_marker_colliding_keys_are_escaped():
    evil = {"__nd__": "not an array", "__tuple__": [1, 2], "x": {"__map__": "y"}}
    packed, arrays_out = pack_tree(evil)
    assert_tree_equal(unpack_tree(packed, arrays_out), evil)


def test_non_string_keys_rejected():
    with pytest.raises(WireError, match="keys must be strings"):
        pack_tree({1: "x"})


def test_unserializable_type_rejected():
    with pytest.raises(WireError, match="cannot serialize"):
        pack_tree({"x": object()})


# --------------------------------------------------------------------------
# ClientSnapshot <-> frame
# --------------------------------------------------------------------------
def rng_states():
    """Real bit-generator state dicts, the gnarliest snapshot payload."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).bit_generator.state
    )


@st.composite
def snapshots(draw):
    return ClientSnapshot(
        algo=draw(st.dictionaries(st.text(max_size=8), trees(), max_size=3)),
        model=draw(st.dictionaries(st.text(min_size=1, max_size=8), arrays(), max_size=3)),
        fault_rng=draw(st.none() | rng_states()),
        loader_rng=draw(st.none() | rng_states()),
        compressor=draw(st.none() | st.dictionaries(st.text(max_size=8), trees(), max_size=2)),
        dp=draw(st.none() | st.dictionaries(st.text(max_size=8), trees(), max_size=2)),
        stats=draw(st.dictionaries(st.text(max_size=8),
                                   st.floats(allow_nan=False), max_size=3)),
        turns=draw(st.integers(0, 10**6)),
    )


@settings(max_examples=60, deadline=None)
@given(snapshots())
def test_snapshot_wire_roundtrip(snapshot):
    again = decode_snapshot(encode_snapshot(snapshot))
    assert_tree_equal(again.algo, snapshot.algo)
    assert_tree_equal(again.model, snapshot.model)
    assert_tree_equal(again.fault_rng, snapshot.fault_rng)
    assert_tree_equal(again.loader_rng, snapshot.loader_rng)
    assert_tree_equal(again.compressor, snapshot.compressor)
    assert_tree_equal(again.dp, snapshot.dp)
    assert again.stats == snapshot.stats
    assert again.turns == snapshot.turns


def test_rng_state_drives_identical_draws_after_roundtrip():
    rng = np.random.default_rng(1234)
    rng.random(7)  # advance off the seed point
    snapshot = ClientSnapshot(fault_rng=rng.bit_generator.state)
    restored = decode_snapshot(encode_snapshot(snapshot))
    a = np.random.default_rng(0)
    a.bit_generator.state = snapshot.fault_rng
    b = np.random.default_rng(0)
    b.bit_generator.state = restored.fault_rng
    np.testing.assert_array_equal(a.random(64), b.random(64))


# --------------------------------------------------------------------------
# turn and result frames
# --------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    turn=st.integers(0, 2**31),
    client=st.integers(0, 10**6),
    method=st.sampled_from(["local_update", "run_round", "evaluate"]),
    args=st.lists(scalars(), max_size=3).map(tuple),
    kwargs=st.dictionaries(st.text(min_size=1, max_size=8), scalars(), max_size=3),
)
def test_turn_wire_roundtrip(turn, client, method, args, kwargs):
    frame = encode_turn(turn, client, method, args, kwargs)
    t, c, m, a, k = decode_turn(frame)
    assert (t, c, m) == (turn, client, method)
    assert_tree_equal(a, args)
    assert_tree_equal(k, kwargs)


@settings(max_examples=60, deadline=None)
@given(value=trees(), snap_bytes=st.integers(0, 2**31))
def test_result_wire_roundtrip(value, snap_bytes):
    frame = encode_result(17, 3, value, snap_bytes=snap_bytes, worker="w-1")
    out = decode_result(frame)
    assert out["turn"] == 17 and out["client"] == 3 and out["ok"]
    assert out["snap_bytes"] == snap_bytes and out["worker"] == "w-1"
    assert_tree_equal(out["value"], value)


def test_error_frame_carries_type_message_traceback():
    try:
        raise KeyError("missing shard")
    except KeyError as exc:
        frame = encode_error(5, 9, exc, traceback_text="tb-text", worker="w-2")
    out = decode_result(frame)
    assert not out["ok"]
    assert out["error"]["type"] == "KeyError"
    assert "missing shard" in out["error"]["message"]
    assert out["error"]["traceback"] == "tb-text"


def test_frames_reject_wrong_kind():
    snapshot_frame = encode_snapshot(ClientSnapshot())
    with pytest.raises(WireError):
        decode_turn(snapshot_frame)
    with pytest.raises(WireError):
        decode_result(snapshot_frame)
    with pytest.raises(WireError):
        decode_snapshot(encode_turn(0, 0, "evaluate", (), {}))


@settings(max_examples=60, deadline=None)
@given(frames=st.lists(st.binary(max_size=64), max_size=6))
def test_queue_item_roundtrip_and_truncation(frames):
    # a queue item (a batch of turn or result frames) comes back frame for
    # frame, empty frames and the empty batch included; a cut item is an
    # error, never a shorter batch
    item = pack_frames(frames)
    assert unpack_frames(item) == frames
    with pytest.raises(WireError):
        unpack_frames(item[:-1])
    with pytest.raises(WireError):
        unpack_frames(item + b"x")
