"""TopK sparsification (Shi et al. 2019): keep the k largest-magnitude entries.

``ratio`` follows the paper's notation: ratio 1000 ("1000x") keeps n/1000
entries.  Selection is O(n) (:func:`~repro.compression.base.largest_k`),
never a full sort.  The selection rule: when the k largest magnitudes form a
unique set, that set is the payload; when they do not (ties at the k-th
value) the payload is whatever ``np.argpartition(|x|, n - k)[n - k:]``
picks.  The *order* of indices inside a payload is unspecified and nothing
may depend on it — ``decompress`` and every consumer scatter by index.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compression.base import COMPRESSORS, CompressedPayload, Compressor, largest_k

__all__ = ["TopK"]


@COMPRESSORS.register("topk")
class TopK(Compressor):
    """Magnitude top-k; payload is (indices, values)."""

    collective_hint = "allgather"

    def __init__(self, ratio: float = 10.0, k: Optional[int] = None) -> None:
        if k is None and ratio < 1.0:
            raise ValueError("ratio must be >= 1 (ratio == original/kept)")
        self.ratio = float(ratio)
        self.k = k

    def _k_for(self, n: int) -> int:
        if self.k is not None:
            return max(1, min(int(self.k), n))
        return max(1, int(round(n / self.ratio)))

    def compress(self, vector: np.ndarray) -> CompressedPayload:
        flat = self._flat32(vector)
        k = self._k_for(flat.size)
        if k >= flat.size:
            idx = np.arange(flat.size, dtype=np.uint32)
        else:
            idx = largest_k(np.abs(flat), k).astype(np.uint32)
        return CompressedPayload(
            {"indices": idx, "values": flat[idx]},
            {"n": int(flat.size), "k": int(k)},
            flat.nbytes,
        )

    def decompress(self, payload: CompressedPayload) -> np.ndarray:
        out = np.zeros(int(payload.meta["n"]), dtype=np.float32)
        out[payload.arrays["indices"].astype(np.int64)] = payload.arrays["values"]
        return out
