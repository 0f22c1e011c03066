"""Compressor interface, payload container, and registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "CompressedPayload", "Compressor", "IdentityCompressor", "COMPRESSORS", "build_compressor", "largest_k",
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


def largest_k(magnitudes: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of a 1-D float vector, in no
    particular order (``1 <= k <= magnitudes.size``).

    ``np.argpartition`` falls off a cliff on zero-heavy input: an average of
    already-sparsified deltas is ~80 % exact zeros, and numpy 2.4's
    introselect takes 20-40x longer on it than on a dense vector of the same
    length (occasionally from 40 % zeros, usually from 60 %).  So when at
    least half the entries are zero only the non-zero support is partitioned,
    and that answer stands only when it is the unique top-k set — exactly
    ``k`` entries reach the smallest selected value.  Ties at that value,
    NaNs, ``nnz <= k`` and dense input all take the plain full-vector call,
    so callers get the set that call returns, always.
    """
    n = magnitudes.size
    nonzero = magnitudes != 0
    nnz = np.count_nonzero(nonzero)
    if k < nnz <= n // 2:
        support = np.flatnonzero(nonzero)
        candidates = magnitudes[support]
        top = np.argpartition(candidates, nnz - k)[nnz - k :]
        if np.count_nonzero(magnitudes >= candidates[top].min()) == k:
            return support[top]
    return np.argpartition(magnitudes, n - k)[n - k :]


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
