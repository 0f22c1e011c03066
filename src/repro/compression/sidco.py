"""SIDCo (Abdelmoniem et al. 2021): statistical model-based thresholding.

Gradients are modeled as sparsity-inducing double-exponential (Laplace):
P(|g| > t) = exp(-t/b) with scale b = mean(|g|), so the threshold for target
ratio r is ``t = -b * ln(1/r)`` — no sorting, no search.  A few fitting
stages re-estimate b on the tail to correct model mismatch (the paper's
multi-stage estimator).
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.base import COMPRESSORS, CompressedPayload, SparseCompressor, largest_k

__all__ = ["SIDCo"]


@COMPRESSORS.register("sidco")
class SIDCo(SparseCompressor):
    def __init__(self, ratio: float = 10.0, stages: int = 3) -> None:
        if ratio < 1.0:
            raise ValueError("ratio must be >= 1")
        self.ratio = float(ratio)
        self.stages = max(1, int(stages))

    def compress(self, vector: np.ndarray) -> CompressedPayload:
        flat = self._flat32(vector)
        n = flat.size
        target_fraction = min(1.0, 1.0 / self.ratio)
        mags = np.abs(flat)

        # stage-wise: each stage keeps fraction f_i with prod f_i = target,
        # re-fitting the Laplace scale on the surviving tail
        per_stage = target_fraction ** (1.0 / self.stages)
        threshold = 0.0
        tail = mags
        for _ in range(self.stages):
            b = float(tail.mean())
            if b <= 0:
                break
            threshold += -b * math.log(per_stage)
            tail = mags[mags >= threshold]
            if tail.size == 0:
                break
        idx = np.flatnonzero(mags >= threshold)
        target_k = max(1, int(round(n * target_fraction)))
        if idx.size < max(1, target_k // 2):
            # model mismatch over-sparsified; fall back to exact selection
            # (SIDCo's fitting-error correction stage)
            idx = largest_k(mags, target_k)
        elif idx.size > 2 * target_k:
            idx = idx[largest_k(mags[idx], target_k)]
        return self._payload(flat, idx, threshold=float(threshold))
