from collections import OrderedDict

import numpy as np
import pytest

from repro.compression import QSGD, TopK
from repro.node.codec import decode_update, encode_update
from repro.privacy import DifferentialPrivacy


def make_state(rng):
    return OrderedDict(
        w=rng.standard_normal((4, 3)).astype(np.float32),
        b=rng.standard_normal(3).astype(np.float32),
        steps=np.asarray(5, dtype=np.int64),
    )


def test_noop_without_plugins(rng):
    state = make_state(rng)
    wire, meta = encode_update(state)
    assert wire is state and meta == {}
    assert decode_update(wire, meta) == dict(state)


def test_lossless_compression_roundtrip(rng):
    state = make_state(rng)
    comp = TopK(ratio=1)
    wire, meta = encode_update(state, comp)
    assert meta["compressed"]
    assert any(k.startswith("__czip__.") for k in wire)
    assert "steps" in wire  # int buffers travel raw
    decoded = decode_update(wire, meta, comp)
    for k in ("w", "b"):
        assert np.allclose(decoded[k], state[k])
    assert int(decoded["steps"]) == 5


def test_lossy_compression_reduces_bytes(rng):
    rng2 = np.random.default_rng(1)
    state = OrderedDict(w=rng2.standard_normal(10000).astype(np.float32))
    comp = TopK(ratio=100)
    wire, meta = encode_update(state, comp)
    sent = sum(v.nbytes for v in wire.values())
    assert sent < state["w"].nbytes / 10


def test_delta_coding_recovers_reference_plus_delta(rng):
    state = make_state(rng)
    reference = OrderedDict((k, v - 1.0 if np.issubdtype(v.dtype, np.floating) else v)
                            for k, v in state.items())
    comp = TopK(ratio=1)
    wire, meta = encode_update(state, comp, reference=reference)
    assert meta["delta_coded"]
    decoded = decode_update(wire, meta, comp, reference=reference)
    assert np.allclose(decoded["w"], state["w"], atol=1e-6)


def test_delta_coded_decode_requires_reference(rng):
    state = make_state(rng)
    comp = TopK(ratio=1)
    wire, meta = encode_update(state, comp, reference=state)
    with pytest.raises(ValueError, match="reference"):
        decode_update(wire, meta, comp)


def test_decode_compressed_without_compressor_rejected(rng):
    state = make_state(rng)
    wire, meta = encode_update(state, TopK(ratio=2))
    with pytest.raises(ValueError, match="compressor"):
        decode_update(wire, meta)


def test_dp_only_path_adds_noise_and_keeps_keys(rng):
    state = make_state(rng)
    dp = DifferentialPrivacy(epsilon=0.5, clip_norm=1.0, seed=1)
    wire, meta = encode_update(state, dp=dp)
    assert "dp" in meta
    assert set(wire) == set(state)
    assert not np.allclose(wire["w"], state["w"])  # noised
    assert int(wire["steps"]) == 5  # ints untouched


def test_dp_then_compression_compose(rng):
    state = make_state(rng)
    dp = DifferentialPrivacy(epsilon=1.0, clip_norm=10.0, seed=2)
    comp = QSGD(bits=16)
    wire, meta = encode_update(state, comp, dp)
    assert meta["compressed"] and "dp" in meta
    decoded = decode_update(wire, meta, comp)
    assert decoded["w"].shape == state["w"].shape


def test_spec_travels_in_meta(rng):
    state = make_state(rng)
    comp = TopK(ratio=1)
    _, meta = encode_update(state, comp)
    keys = [k for k, _, _ in meta["spec"]]
    assert keys == ["w", "b"]  # float entries only, order preserved


def test_decode_entries_flattens_the_reference_once(rng, monkeypatch):
    """An aggregator decodes every gathered entry against the same
    round-start state; that state is flattened once per call, not per entry."""
    from types import SimpleNamespace

    from repro.node import codec as codec_mod
    from repro.node.node import Node
    from repro.telemetry.tracer import NOOP_TRACER

    reference = make_state(rng)
    comp = TopK(ratio=2)
    entries, expected = [], []
    for rank in range(5):
        state = OrderedDict((k, v + rank if k != "steps" else v) for k, v in reference.items())
        wire, meta = encode_update(state, comp, reference=reference)
        assert meta["delta_coded"]
        entries.append({"rank": rank, "state": wire, "meta": meta})
        expected.append(decode_update(wire, meta, comp, reference=reference))

    flattened = []
    real = codec_mod.state_dict_to_vector

    def counting(state, keys=None):
        flattened.append(state)
        return real(state, keys)

    monkeypatch.setattr(codec_mod, "state_dict_to_vector", counting)
    stub = SimpleNamespace(tracer=NOOP_TRACER, name="aggregator")
    decoded = Node._decode_entries(stub, entries, comp, reference)
    assert len(flattened) == 1 and flattened[0] is reference
    assert [d["rank"] for d in decoded] == list(range(5))
    for got, want in zip(decoded, expected):
        assert list(got["state"]) == list(want)
        assert all(got["state"][k].tobytes() == want[k].tobytes() for k in want)


def _hostile_pair(seed):
    """A state and its reference with what a one-pass delta could get wrong:
    ``-0.0`` on both sides, float64 entries (the delta is taken in float32,
    after each side is rounded), a float64 reference under a float32 entry,
    and an integer buffer that never enters the vector."""
    rng = np.random.default_rng(seed)
    state = OrderedDict(
        w=rng.standard_normal((5, 7)).astype(np.float32),
        d=rng.standard_normal(9),
        steps=np.asarray(3, dtype=np.int64),
        z=np.array([-0.0, 0.0, -0.0, 1.5], dtype=np.float32),
    )
    reference = OrderedDict(
        w=rng.standard_normal((5, 7)),
        d=rng.standard_normal(9),
        steps=np.asarray(2, dtype=np.int64),
        z=np.array([0.0, -0.0, -0.0, 1.5], dtype=np.float32),
    )
    return state, reference


def _parent_delta(state, reference):
    """The delta as flatten-both-then-subtract computed it."""
    keys = [k for k, v in state.items() if v.dtype.kind == "f"]
    flat = lambda s: np.concatenate([np.asarray(s[k], dtype=np.float32).ravel() for k in keys])
    return flat(state) - flat(reference), flat(reference)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_delta_encoding_is_bit_identical_to_flatten_then_subtract(seed):
    state, reference = _hostile_pair(seed)
    delta, _ = _parent_delta(state, reference)
    wire, meta = encode_update(state, TopK(ratio=1), reference=reference)
    assert meta["delta_coded"] is True
    assert np.array_equal(wire["__czip__.indices"], np.arange(delta.size))
    assert wire["__czip__.values"].tobytes() == delta.tobytes()  # -0.0 included
    assert wire["steps"] is state["steps"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dp_delta_path_is_bit_identical_to_flatten_then_subtract(seed):
    state, reference = _hostile_pair(seed)
    delta, ref_vec = _parent_delta(state, reference)
    expected = DifferentialPrivacy(epsilon=2.0, clip_norm=5.0, seed=seed).apply(delta) + ref_vec
    wire, _ = encode_update(state, None, DifferentialPrivacy(epsilon=2.0, clip_norm=5.0, seed=seed), reference)
    got = np.concatenate([np.asarray(wire[k], dtype=np.float32).ravel() for k in ("w", "d", "z")])
    assert got.tobytes() == expected.tobytes()
    assert wire["d"].dtype == np.float64 and wire["steps"] is state["steps"]
