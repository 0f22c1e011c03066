"""Compressor interface, payload container, and registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "CompressedPayload", "Compressor", "IdentityCompressor", "SparseCompressor", "COMPRESSORS",
    "build_compressor", "kth_largest", "largest_k",
]

COMPRESSORS: Registry["Compressor"] = Registry("compressor")


@dataclass
class CompressedPayload:
    """What actually travels: named arrays plus JSON-safe metadata.

    ``compressed_bytes`` is the transfer size charged to communicators;
    ``original_bytes`` lets callers report effective compression factors.
    """

    arrays: Dict[str, np.ndarray]
    meta: Dict[str, Any] = field(default_factory=dict)
    original_bytes: int = 0

    @property
    def compressed_bytes(self) -> int:
        return int(sum(a.nbytes for a in self.arrays.values()))

    @property
    def ratio(self) -> float:
        """Effective compression factor (original / compressed)."""
        c = self.compressed_bytes
        return float(self.original_bytes) / c if c else float("inf")


class Compressor:
    """Compress/decompress flat float32 update vectors.

    Invariant every implementation keeps: ``decompress`` returns a vector of
    the original length, and a lossless configuration (e.g. TopK with
    ratio 1) round-trips exactly.
    """

    #: which collective the compressed form composes with (paper §3.4.2:
    #: sparsification needs all-gather; quantization/low-rank all-reduce)
    collective_hint: str = "allgather"

    def compress(self, vector: np.ndarray) -> CompressedPayload:
        raise NotImplementedError

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        raise NotImplementedError

    def roundtrip(self, vector: np.ndarray) -> np.ndarray:
        """Convenience: what the receiver reconstructs from ``vector``."""
        return self.decompress(self.compress(vector))

    # stateful compressors (PowerSGD warm start, error feedback) reset here
    def reset(self) -> None:
        pass

    # ------------------------------------------------------------------
    # client-pool state swap: stateful compressors carry *per-client* state
    # (error-feedback residuals, warm-start factors, stochastic streams)
    # that must follow the logical client between pool turns
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Snapshot per-client compressor state (stateless default: empty)."""
        return {}

    def import_state(self, state: Dict[str, Any]) -> None:
        """Adopt a client's snapshot (stateless default: no-op)."""

    @staticmethod
    def _flat32(vector: np.ndarray) -> np.ndarray:
        arr = np.asarray(vector, dtype=np.float32).ravel()
        if arr.size == 0:
            raise ValueError("cannot compress an empty vector")
        return arr


def _order_keys(magnitudes: np.ndarray) -> np.ndarray:
    """The bit patterns of non-negative floats, as signed integers: their
    integer order is the float order, with NaN above ``inf``."""
    return magnitudes.view(f"i{magnitudes.itemsize}")


def largest_k(magnitudes: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of a 1-D vector of non-negative
    floats (``|x|``), in ascending order (``1 <= k <= magnitudes.size``).

    The rule is exact and fully specified: the ``k`` largest magnitudes are
    kept, NaN ranks above every number, and among the entries equal to the
    k-th magnitude the lowest indices are kept — the first ``k`` of a stable
    sort by magnitude, descending.  Without a tie at the k-th magnitude that
    is the one set ``np.argpartition(magnitudes, n - k)[n - k:]`` returns.

    ``np.argpartition`` and ``np.partition`` fall off a cliff on zero-heavy
    input: an average of already-sparsified deltas is ~80 % exact zeros, and
    numpy 2.4's introselect takes 20-40x longer on it than on a dense vector
    of the same length (occasionally from 40 % zeros, usually from 60 %).  So
    no partition here ever sees a vector that is at least half zeros: such
    input partitions only its non-zero support, and ``nnz <= k`` needs no
    partition at all (every non-zero, then the lowest-index zeros).  What is
    partitioned is the magnitudes' bit patterns viewed as integers, which
    order non-negative floats exactly and cost less to compare.
    """
    keys = _order_keys(magnitudes)
    nonzero = keys != 0
    nnz = int(np.count_nonzero(nonzero))
    if nnz <= k:
        if nnz < k:
            nonzero[np.flatnonzero(~nonzero)[: k - nnz]] = True
        return np.flatnonzero(nonzero)
    support = None
    if nnz <= keys.size // 2:
        support = np.flatnonzero(nonzero)
        keys = keys[support]
    kth = np.partition(keys, keys.size - k)[keys.size - k]
    inf = np.asarray(np.inf, magnitudes.dtype).view(keys.dtype)
    if kth > inf:  # at least k NaNs, whatever their payloads: all tie
        idx = np.flatnonzero(keys > inf)[:k]
    else:
        idx = np.flatnonzero(keys >= kth)
        extra = idx.size - k
        if extra:  # ties at the k-th magnitude: drop the highest-index ones
            tied = np.flatnonzero(keys[idx] == kth)
            idx = np.delete(idx, tied[tied.size - extra :])
    return idx if support is None else support[idx]


def kth_largest(magnitudes: np.ndarray, k: int) -> np.generic:
    """The ``k``-th largest of a 1-D vector of non-negative floats — the value
    ``np.partition(magnitudes, n - k)[n - k]`` has — selected through
    :func:`largest_k`, so zero-heavy input never reaches a partition."""
    return _order_keys(magnitudes)[largest_k(magnitudes, k)].min().view(magnitudes.dtype)


class SparseCompressor(Compressor):
    """A sparsifier: the payload is the kept entries' ``indices`` (uint32)
    and ``values``, with ``n`` and ``k`` in the metadata."""

    @staticmethod
    def _payload(flat: np.ndarray, idx: np.ndarray, **meta: Any) -> CompressedPayload:
        return CompressedPayload(
            {"indices": idx.astype(np.uint32), "values": flat[idx]},
            {"n": int(flat.size), "k": int(idx.size), **meta},
            flat.nbytes,
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        out = np.zeros(int(payload.meta["n"]), dtype=np.float32)
        out[payload.arrays["indices"].astype(np.int64)] = payload.arrays["values"]
        return out


@COMPRESSORS.register("identity", "none")
class IdentityCompressor(Compressor):
    """No-op compressor (the default communicator path)."""

    collective_hint = "allreduce"

    def compress(self, vector: np.ndarray) -> CompressedPayload:
        flat = self._flat32(vector)
        return CompressedPayload({"values": flat.copy()}, {"n": flat.size}, flat.nbytes)

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        return payload.arrays["values"].copy()


def build_compressor(name: str, /, **kwargs) -> Compressor:
    """Build a registered compressor (``topk``, ``qsgd``, ``powersgd``, ...)."""
    return COMPRESSORS.build(name, **kwargs)
