from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.serialization import (
    clone_state,
    state_add,
    state_average,
    state_dict_to_vector,
    state_scale,
    state_sub,
    state_zeros_like,
    vector_to_state_dict,
)


def make_state(rng):
    return OrderedDict(
        w1=rng.standard_normal((3, 4)).astype(np.float32),
        b1=rng.standard_normal(4).astype(np.float32),
        counter=np.asarray(7, dtype=np.int64),
        running=rng.standard_normal(4).astype(np.float32),
    )


def test_pack_unpack_inverse(rng):
    state = make_state(rng)
    vec, spec = state_dict_to_vector(state)
    restored = vector_to_state_dict(vec, spec)
    for k in state:
        assert restored[k].shape == state[k].shape
        assert restored[k].dtype == state[k].dtype
        if k == "counter":
            assert int(restored[k]) == 7
        else:
            assert np.allclose(restored[k], state[k])


def test_pack_selected_keys(rng):
    state = make_state(rng)
    vec, spec = state_dict_to_vector(state, keys=["w1", "b1"])
    assert vec.size == 12 + 4
    assert spec.keys == ["w1", "b1"]


def test_vector_size_validation(rng):
    state = make_state(rng)
    _, spec = state_dict_to_vector(state)
    with pytest.raises(ValueError, match="scalars"):
        vector_to_state_dict(np.zeros(3, dtype=np.float32), spec)


def test_spec_equality(rng):
    _, s1 = state_dict_to_vector(make_state(rng))
    _, s2 = state_dict_to_vector(make_state(np.random.default_rng(9)))
    assert s1 == s2


def test_state_arithmetic(rng):
    a, b = make_state(rng), make_state(np.random.default_rng(5))
    total = state_add(a, b)
    assert np.allclose(total["w1"], a["w1"] + b["w1"])
    assert int(total["counter"]) == 7  # int entries carried from a
    diff = state_sub(a, b)
    assert np.allclose(diff["b1"], a["b1"] - b["b1"])
    scaled = state_scale(a, 0.5)
    assert np.allclose(scaled["w1"], a["w1"] * 0.5)
    zeros = state_zeros_like(a)
    assert np.allclose(zeros["w1"], 0)


def test_state_average_weighted(rng):
    a = OrderedDict(x=np.asarray([0.0], np.float32))
    b = OrderedDict(x=np.asarray([10.0], np.float32))
    avg = state_average([a, b], weights=[3, 1])
    assert np.allclose(avg["x"], 2.5)


def test_state_average_validations():
    with pytest.raises(ValueError):
        state_average([])
    a = OrderedDict(x=np.asarray([1.0], np.float32))
    with pytest.raises(ValueError):
        state_average([a], weights=[1, 2])
    with pytest.raises(ValueError):
        state_average([a, a], weights=[0, 0])


def test_state_average_preserves_integers(rng):
    a, b = make_state(rng), make_state(np.random.default_rng(3))
    avg = state_average([a, b])
    assert avg["counter"].dtype == np.int64


def test_clone_state_independent(rng):
    state = make_state(rng)
    dup = clone_state(state)
    dup["w1"][...] = 0
    assert not np.allclose(state["w1"], 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=6), st.integers(0, 2**31 - 1))
def test_pack_unpack_property(sizes, seed):
    rng = np.random.default_rng(seed)
    state = OrderedDict(
        (f"t{i}", rng.standard_normal(n).astype(np.float32)) for i, n in enumerate(sizes)
    )
    vec, spec = state_dict_to_vector(state)
    assert vec.size == sum(sizes)
    restored = vector_to_state_dict(vec, spec)
    for k in state:
        assert np.array_equal(restored[k], state[k])


def _parent_state_average(states, weights):
    """``state_average``'s float arithmetic with a fresh float64 product per
    state and entry, as it was before the shared temporary."""
    total = float(sum(weights))
    out = OrderedDict()
    for k, v in states[0].items():
        if v.dtype.kind == "f":
            acc = np.zeros_like(v, dtype=np.float64)
            for s, w in zip(states, [w / total for w in weights]):
                acc += np.asarray(s[k], dtype=np.float64) * w
            out[k] = acc.astype(v.dtype)
        else:
            out[k] = v.copy()
    return out


@pytest.mark.parametrize("weights", [[1.0, 1.0, 1.0], [3, 1, 7], [0.1, 2.5, 1e-3], [np.float32(0.3), 1, 2]])
def test_state_average_is_bit_identical_to_the_fresh_product_formula(weights):
    rng = np.random.default_rng(len(weights) + int(sum(map(float, weights))))
    states = [
        OrderedDict(
            w=rng.standard_normal((6, 5)).astype(np.float32),
            d=rng.standard_normal(7),  # a float64 entry stays float64
            neg_zero=np.array([-0.0, -0.0, 0.0], dtype=np.float32),
            n=np.asarray(i, dtype=np.int64),
        )
        for i in range(3)
    ]
    got = state_average(states, weights)
    want = _parent_state_average(states, weights)
    assert list(got) == list(want)
    for k in want:
        assert got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes()
    assert not np.signbit(got["neg_zero"]).any()  # -0.0 everywhere still averages to +0.0
    assert int(got["n"]) == 0
