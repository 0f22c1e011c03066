"""RedSync (Fang et al. 2018): trimmed-threshold binary search selection.

RedSync finds a magnitude threshold by moving a ratio bound between the mean
and max of |g| — each iteration tests ``mean + r*(max-mean)`` and narrows the
search until the kept count lands within tolerance of the target k.  Cheaper
than sorting on accelerators; here it demonstrates the same plugin surface.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import COMPRESSORS, CompressedPayload, SparseCompressor, largest_k

__all__ = ["RedSync"]


@COMPRESSORS.register("redsync")
class RedSync(SparseCompressor):
    def __init__(self, ratio: float = 10.0, tolerance: float = 0.2, max_iters: int = 20) -> None:
        if ratio < 1.0:
            raise ValueError("ratio must be >= 1")
        self.ratio = float(ratio)
        self.tolerance = float(tolerance)
        self.max_iters = int(max_iters)

    def compress(self, vector: np.ndarray) -> CompressedPayload:
        flat = self._flat32(vector)
        n = flat.size
        target_k = max(1, int(round(n / self.ratio)))
        mags = np.abs(flat)
        lo, hi = float(mags.mean()), float(mags.max())
        if hi <= lo:  # constant-magnitude vector
            idx = np.arange(min(target_k, n))
        else:
            idx = np.flatnonzero(mags >= hi)
            left, right = 0.0, 1.0
            for _ in range(self.max_iters):
                mid = 0.5 * (left + right)
                threshold = lo + mid * (hi - lo)
                candidate = np.flatnonzero(mags >= threshold)
                k = candidate.size
                if k >= target_k:
                    idx = candidate
                if abs(k - target_k) <= self.tolerance * target_k and k >= 1:
                    idx = candidate if k >= 1 else idx
                    break
                if k > target_k:
                    left = mid  # raise threshold
                else:
                    right = mid  # lower threshold
            if idx.size == 0:
                idx = np.array([int(np.argmax(mags))])
            if idx.size > 2 * target_k:  # final trim
                idx = idx[largest_k(mags[idx], target_k)]
        return self._payload(flat, idx)
