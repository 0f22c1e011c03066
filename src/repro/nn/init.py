"""Weight initializers (Kaiming/Xavier) with an explicit RNG.

All initializers take a ``numpy.random.Generator`` so model construction is
deterministic under the framework's hierarchical seeding — a requirement for
FL, where every client must start from *identical* global weights.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = ["kaiming_uniform", "kaiming_normal", "uniform", "zeros", "ones"]


def _fan(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 2:  # (out, in)
        fan_in, fan_out = shape[1], shape[0]
    elif len(shape) == 4:  # (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in, fan_out = shape[1] * receptive, shape[0] * receptive
    else:
        size = int(np.prod(shape))
        fan_in = fan_out = max(1, size)
    return fan_in, fan_out


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator, a: float = math.sqrt(5)) -> np.ndarray:
    """He-uniform init matching PyTorch's default for Linear/Conv."""
    fan_in, _ = _fan(shape)
    gain = math.sqrt(2.0 / (1.0 + a * a))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def kaiming_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = _fan(shape)
    std = math.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float32)


def uniform(shape: Tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
