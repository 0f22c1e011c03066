"""Flat-vector packing of parameter trees — the currency of FL.

Every algorithm, compressor, privacy mechanism and communicator in this repo
exchanges model state as either a *state dict* (``OrderedDict[str, ndarray]``)
or a single flat ``float32`` vector plus a spec describing how to unflatten.
Pack/unpack are exact inverses (property-tested).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "StateSpec",
    "is_float",
    "state_dict_to_vector",
    "vector_to_state_dict",
    "state_add",
    "state_sub",
    "state_scale",
    "state_zeros_like",
    "state_average",
    "clone_state",
]

StateDict = "OrderedDict[str, np.ndarray]"
_FLOAT32 = np.dtype(np.float32)


def is_float(arr: Any) -> bool:
    """Whether ``arr`` holds floating-point numbers: the entries FL arithmetic
    (averaging, deltas, compression, DP) applies to.  Integer buffers such as
    BatchNorm's step counter are carried, never mixed."""
    return np.asarray(arr).dtype.kind == "f"


class StateSpec:
    """Shapes/dtypes/order of a state dict, enough to invert flattening."""

    def __init__(self, entries: Sequence[Tuple[str, Tuple[int, ...], np.dtype]]) -> None:
        self.entries = list(entries)
        self.total = int(sum(math.prod(shape) for _, shape, _ in self.entries))

    @property
    def keys(self) -> List[str]:
        return [k for k, _, _ in self.entries]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSpec):
            return NotImplemented
        return [(k, tuple(s), np.dtype(d)) for k, s, d in self.entries] == [
            (k, tuple(s), np.dtype(d)) for k, s, d in other.entries
        ]

    def __repr__(self) -> str:
        return f"StateSpec({len(self.entries)} tensors, {self.total} scalars)"


def state_dict_to_vector(
    state: Mapping[str, np.ndarray],
    keys: Optional[Iterable[str]] = None,
    minus: Optional[Mapping[str, np.ndarray]] = None,
) -> Tuple[np.ndarray, StateSpec]:
    """Flatten selected entries (default: all) into one float32 vector.

    With ``minus``, the vector is ``state - minus``, entry by entry, each
    difference written by one float32 subtraction straight into its slice —
    bit for bit the difference of the two flattened vectors, without them.
    """
    selected = list(keys) if keys is not None else list(state.keys())
    entries = [(k, tuple(state[k].shape), state[k].dtype) for k in selected]
    spec = StateSpec(entries)
    if not selected:
        return np.zeros(0, dtype=np.float32), spec
    if minus is None:
        return np.concatenate([np.asarray(state[k], dtype=np.float32).ravel() for k in selected]), spec
    vec = np.empty(spec.total, dtype=np.float32)
    offset = 0
    for k in selected:
        a = np.ravel(state[k])
        np.subtract(a, np.ravel(minus[k]), out=vec[offset : offset + a.size], dtype=np.float32)
        offset += a.size
    return vec, spec


def vector_to_state_dict(vector: np.ndarray, spec: StateSpec) -> "OrderedDict[str, np.ndarray]":
    """Inverse of :func:`state_dict_to_vector` (restores shapes and dtypes)."""
    if vector.size != spec.total:
        raise ValueError(f"vector has {vector.size} scalars but spec expects {spec.total}")
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    offset = 0
    for key, shape, dtype in spec.entries:
        size = math.prod(shape)
        chunk = vector[offset : offset + size].reshape(shape)
        out[key] = chunk.astype(dtype, copy=True) if dtype != _FLOAT32 else chunk.copy()
        offset += size
    return out


def clone_state(state: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    return OrderedDict((k, np.array(v, copy=True)) for k, v in state.items())


def state_zeros_like(state: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    return OrderedDict((k, np.zeros_like(v)) for k, v in state.items())


def state_add(a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    """Elementwise ``a + b``; integer buffers are carried from ``a`` unchanged."""
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for k, v in a.items():
        if is_float(v):
            out[k] = v + b[k]
        else:
            out[k] = v.copy()
    return out


def state_sub(a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for k, v in a.items():
        if is_float(v):
            out[k] = v - b[k]
        else:
            out[k] = v.copy()
    return out


def state_scale(state: Mapping[str, np.ndarray], factor: float) -> "OrderedDict[str, np.ndarray]":
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for k, v in state.items():
        if is_float(v):
            out[k] = v * factor
        else:
            out[k] = v.copy()
    return out


def state_average(
    states: Sequence[Mapping[str, np.ndarray]],
    weights: Optional[Sequence[float]] = None,
) -> "OrderedDict[str, np.ndarray]":
    """Weighted average of homogeneous state dicts (FedAvg's core op).

    Integer entries (e.g. BatchNorm's ``num_batches_tracked``) take the first
    state's value — averaging step counters is meaningless.
    """
    if not states:
        raise ValueError("cannot average zero states")
    if weights is None:
        weights = [1.0] * len(states)
    if len(weights) != len(states):
        raise ValueError("weights length must match states length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    norm = [w / total for w in weights]
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    first = states[0]
    for k, v in first.items():
        if is_float(v):
            # one float64 temporary per entry; the accumulator starts from
            # +0.0, so an all -0.0 entry still averages to +0.0
            acc = np.zeros_like(v, dtype=np.float64)
            tmp = np.empty_like(acc)
            for s, w in zip(states, norm):
                acc += np.multiply(s[k], w, out=tmp, dtype=np.float64)
            out[k] = acc.astype(v.dtype)
        else:
            out[k] = v.copy()
    return out
