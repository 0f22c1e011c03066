"""Deep Gradient Compression (Lin et al. 2017), the sampling-threshold variant.

DGC avoids TopK's full selection cost on huge tensors by *sampling* a small
fraction of entries, taking the top-k of the sample to estimate a magnitude
threshold, then keeping everything above it.  The kept count therefore
fluctuates around n/ratio.  (The original paper couples this with momentum
correction and gradient clipping on the optimizer side; residual accumulation
is provided by the :class:`~repro.compression.error_feedback.ErrorFeedback`
wrapper, matching how OmniFed composes plugins.)
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import COMPRESSORS, CompressedPayload, SparseCompressor, kth_largest, largest_k

__all__ = ["DGC"]


@COMPRESSORS.register("dgc")
class DGC(SparseCompressor):
    def __init__(self, ratio: float = 10.0, sample_fraction: float = 0.01, seed: int = 0) -> None:
        if ratio < 1.0:
            raise ValueError("ratio must be >= 1")
        if not (0.0 < sample_fraction <= 1.0):
            raise ValueError("sample_fraction must be in (0, 1]")
        self.ratio = float(ratio)
        self.sample_fraction = float(sample_fraction)
        self._rng = np.random.default_rng(seed)

    def export_state(self):
        # the sampling stream is per-client: a pool worker must not burn one
        # client's draws on another client's turns
        return {"rng": self._rng.bit_generator.state}

    def import_state(self, state) -> None:
        self._rng.bit_generator.state = state["rng"]

    def compress(self, vector: np.ndarray) -> CompressedPayload:
        flat = self._flat32(vector)
        n = flat.size
        target_k = max(1, int(round(n / self.ratio)))
        magnitudes = np.abs(flat)

        sample_size = max(min(n, 256), int(n * self.sample_fraction))
        if sample_size < n:
            sample = magnitudes[self._rng.choice(n, size=sample_size, replace=False)]
        else:
            sample = magnitudes
        sample_k = max(1, int(round(sample.size * target_k / n)))
        threshold = kth_largest(sample, sample_k)

        idx = np.flatnonzero(magnitudes >= threshold)
        if idx.size == 0:  # degenerate threshold (all-equal vectors)
            idx = np.array([int(np.argmax(magnitudes))])
        # hierarchical re-selection if the estimate overshot badly (DGC's trick)
        if idx.size > 2 * target_k:
            idx = idx[largest_k(magnitudes[idx], target_k)]
        return self._payload(flat, idx, threshold=float(threshold))
