"""TopK sparsification (Shi et al. 2019): keep the k largest-magnitude entries.

``ratio`` follows the paper's notation: ratio 1000 ("1000x") keeps n/1000
entries.  Selection is O(n) (:func:`~repro.compression.base.largest_k`),
never a full sort, and its rule is fully specified: the k largest
magnitudes, NaN above every number, and among entries equal to the k-th
magnitude the lowest indices — the first k of a stable sort by magnitude,
descending.  Payload indices are in ascending order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compression.base import COMPRESSORS, CompressedPayload, SparseCompressor, largest_k

__all__ = ["TopK"]


@COMPRESSORS.register("topk")
class TopK(SparseCompressor):
    """Magnitude top-k; payload is (indices, values)."""

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
        return self._payload(flat, largest_k(np.abs(flat), self._k_for(flat.size)))
