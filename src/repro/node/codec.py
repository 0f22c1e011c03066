"""Update codec: optional DP and compression applied to uploaded states.

Uploads are state dicts.  The codec flattens the floating entries to one
vector, applies (in order) differential privacy then compression, and ships
the compressor's payload arrays under a reserved ``__czip__.`` prefix with a
self-describing spec in the metadata — so the receiver can decode without
out-of-band knowledge, whatever keys the algorithm chose to upload.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.compression.base import CompressedPayload, Compressor
from repro.nn.serialization import StateSpec, is_float, state_dict_to_vector, vector_to_state_dict
from repro.privacy.dp import DifferentialPrivacy

__all__ = ["encode_update", "decode_update"]

_PREFIX = "__czip__."


def _float_keys(state: Dict[str, np.ndarray]) -> List[str]:
    return [k for k, v in state.items() if is_float(v)]


@lru_cache(maxsize=None)
def _dtype_name(dtype: np.dtype) -> str:
    # ``dtype.name`` is rebuilt on every read; a run meets a handful of dtypes
    return np.dtype(dtype).name


def encode_update(
    state: Dict[str, np.ndarray],
    compressor: Optional[Compressor] = None,
    dp: Optional[DifferentialPrivacy] = None,
    reference: Optional[Dict[str, np.ndarray]] = None,
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Privatize/compress ``state``; returns (wire_state, extra_meta).

    With ``reference`` (the round-start global state for full-state uploads),
    the *difference* is what gets privatized/compressed — lossy compression
    of raw weights would destroy the model, while deltas are small and
    sparsity-friendly.  The receiver adds its copy of the reference back.
    """
    if compressor is None and dp is None:
        return state, {}
    keys = _float_keys(state)
    delta_coded = reference is not None and all(k in reference for k in keys)
    vec, spec = state_dict_to_vector(state, keys, minus=reference if delta_coded else None)
    extra: Dict[str, Any] = {}
    if dp is not None:
        vec = dp.apply(vec)
        extra["dp"] = {"epsilon": dp.epsilon, "delta": dp.delta, "mechanism": dp.mechanism}
    if compressor is None:
        # re-assemble the privatized floats alongside untouched int entries
        if delta_coded:
            vec = vec + state_dict_to_vector(reference, keys)[0]
        out = OrderedDict(vector_to_state_dict(vec, spec))
        for k, v in state.items():
            if k not in out:
                out[k] = v
        return out, extra
    extra["delta_coded"] = delta_coded
    payload = compressor.compress(vec)
    wire: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for k, v in state.items():
        if k not in keys:
            wire[k] = v  # integer buffers travel raw
    for name, arr in payload.arrays.items():
        wire[_PREFIX + name] = arr
    extra.update(
        {
            "compressed": True,
            "comp_meta": dict(payload.meta),
            "original_bytes": int(payload.original_bytes),
            "spec": [[k, list(shape), _dtype_name(dt)] for k, shape, dt in spec.entries],
        }
    )
    return wire, extra


def decode_update(
    wire_state: Dict[str, np.ndarray],
    meta: Dict[str, Any],
    compressor: Optional[Compressor] = None,
    reference: Optional[Dict[str, np.ndarray]] = None,
    reference_vectors: Optional[Dict[Tuple[str, ...], np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_update` (DP noise is, of course, not removed).

    A caller decoding many entries against one ``reference`` passes the same
    (initially empty) ``reference_vectors`` dict with each call, and the
    reference is flattened once per distinct key set instead of once per entry.
    """
    if not meta.get("compressed"):
        return dict(wire_state)
    if compressor is None:
        raise ValueError("received a compressed update but no compressor is configured")
    arrays = {k[len(_PREFIX):]: v for k, v in wire_state.items() if k.startswith(_PREFIX)}
    payload = CompressedPayload(arrays, dict(meta["comp_meta"]), int(meta.get("original_bytes", 0)))
    vec = compressor.decompress(payload)
    spec = StateSpec([(k, tuple(shape), np.dtype(dt)) for k, shape, dt in meta["spec"]])
    if meta.get("delta_coded"):
        if reference is None:
            raise ValueError("delta-coded update needs the reference global state to decode")
        cache = {} if reference_vectors is None else reference_vectors
        keys = tuple(spec.keys)
        if keys not in cache:
            cache[keys], _ = state_dict_to_vector(reference, keys)
        vec = vec + cache[keys]
    out = OrderedDict(vector_to_state_dict(vec, spec))
    for k, v in wire_state.items():
        if not k.startswith(_PREFIX):
            out[k] = v
    return out
