"""Loss modules wrapping the fused functional implementations."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss(Module):
    """Softmax cross-entropy against integer class labels."""

    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        self.reduction = reduction

    def forward(self, logits: Tensor, target: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, target, self.reduction)
