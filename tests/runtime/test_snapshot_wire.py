"""Snapshot/turn wire codecs: ``decode(encode(x)) == x``, bit for bit.

A redis worker replays a client's turn from nothing but wire frames, so
the serde layer must reproduce every payload exactly — array dtypes and
float bits, tuples vs. lists, bytes, numpy scalars, and the arbitrarily
large integers inside rng bit-generator states.  Property-based over the
tree grammar the brokers actually ship.
"""

import hashlib
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.wire import WireError
from repro.engine.client_state import ClientSnapshot
from repro.models import build_model
from repro.runtime.serde import (
    GSTATE_KEY,
    decode_result,
    decode_snapshot,
    decode_turn,
    encode_error,
    encode_payload,
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


# --------------------------------------------------------------------------
# golden frames: the exact bytes every codec emits, pinned
# --------------------------------------------------------------------------
def golden_frames():
    """Fixed inputs covering what the brokers ship, as the frames they encode to."""
    loader, fault = np.random.default_rng(5), np.random.default_rng(6)
    loader.random(3)  # off the seed point: the state's counters are non-trivial
    snapshot = ClientSnapshot(  # fedavg persists no model rows
        fault_rng=fault.bit_generator.state, loader_rng=loader.bit_generator.state,
        stats={"loss": 0.6931471805599453, "accuracy": 0.25, "steps": 3.0}, turns=3,
    )
    state = build_model("mlp", seed=0).state_dict()  # an OrderedDict of float32
    value = {"state": state, "meta": {"num_samples": 48},
             "stats": {"loss": np.float64(0.3), "acc": 0.9, "steps": np.int64(2)},
             "version": 4}
    payload = {"model": dict(state), "__nd__": "collides", "flags": [True, 1, 1.0, None],
               "extras": (b"\x00\xff", np.bool_(True), np.float32(1.5), [(-2, "x")]),
               "fortran": np.asfortranarray(np.arange(6, dtype=np.int16).reshape(2, 3)),
               "zero_d": np.asarray(2.5)}
    try:
        raise KeyError("missing shard")
    except KeyError as exc:
        error = encode_error(5, 9, exc, traceback_text="tb-text", worker="w-2", batch=3)
    frames = {
        "snapshot": encode_snapshot(snapshot),
        "result": encode_result(17, 3, value, snap_bytes=473, worker="w-1", batch=2),
        "payload": encode_payload(payload),
        "turn": encode_turn(12, 3, "local_update", ({GSTATE_KEY: 2}, 4, 1), {}),
        "error": error,
    }
    frames["item"] = pack_frames([frames["turn"], b"", frames["error"]])
    return frames


#: computed with the isinstance-chain codec these hashes must outlive
GOLDEN_SHA256 = {
    "error": "51f58ba19a233f41d6b8d9ac0eaf5f2948edb8f3238a115e4ff7efc4a19a8d1b",  # 161 B
    "item": "63a26f9ff43b69b1a6761030ceb755d8a63d317ebabcdc12cc17df105c969464",  # 314 B
    "payload": "1f91c04da0e894910bf58ad37b08791f7612c98edd1587786a317ca6becdd8f5",  # 28353 B
    "result": "7aea4331c5faf818609a6b069d15070ae25f125aadd72b90b2a75c79551fe140",  # 28274 B
    "snapshot": "9ffb9c625db15009670694687fd0049573f25a7a11d9132bb508b78f41e7aab8",  # 488 B
    "turn": "a1affbeef1ee43d006aaef6e5c27fdd01bc05aa11880612ffc2f4f0939278398",  # 125 B
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_frames_are_byte_identical_to_the_pinned_encoding(name):
    assert hashlib.sha256(golden_frames()[name]).hexdigest() == GOLDEN_SHA256[name]


# --------------------------------------------------------------------------
# the exact-type dispatch: look-alike types keep their own paths
# --------------------------------------------------------------------------
_LOOKALIKES = st.one_of(
    st.floats(allow_nan=False).map(np.float64),  # a float subclass: not a plain float
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.booleans(),  # bool is an int subclass and stays a bool
    st.integers(-(2**70), 2**70),
)


def lookalike_trees():
    return st.recursive(
        _LOOKALIKES,
        lambda children: st.one_of(
            st.lists(st.lists(children, max_size=3).map(tuple), max_size=3),  # tuples in lists
            st.dictionaries(st.sampled_from(["__nd__", "__np__", "__tuple__", "__bytes__",
                                             "__map__", "__gstate__", "k"]),
                            children, max_size=3),
        ),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None)
@given(lookalike_trees())
def test_lookalike_types_roundtrip_to_their_exact_type(tree):
    packed, arrays_out = pack_tree(tree)
    assert_tree_equal(unpack_tree(packed, arrays_out), tree)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=8), lookalike_trees()), max_size=4))
def test_an_ordered_dict_packs_exactly_as_the_equal_dict(items):
    # a dict subclass takes the isinstance path and lands on the same bytes;
    # the frame has no type tag for it, so it comes back as a plain dict
    ordered, plain = OrderedDict(items), dict(items)
    assert encode_payload(ordered) == encode_payload(plain)
    packed, arrays_out = pack_tree(ordered)
    again = unpack_tree(packed, arrays_out)
    assert type(again) is dict and list(again) == list(ordered)
    assert_tree_equal(again, plain)
