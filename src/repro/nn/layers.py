"""Layer zoo: Linear, Conv2d, BatchNorm, pooling, dropout, activations.

Layers own their parameters/buffers and delegate math to
:mod:`repro.nn.functional`.  Construction takes an optional RNG; when absent
a process-global default generator is used (tests always pass one).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "MaxPool2d",
    "AdaptiveAvgPool2d",
    "Dropout",
    "ReLU",
    "Sequential",
]

_Pair = Union[int, Tuple[int, int]]
_DEFAULT_RNG = np.random.default_rng(0)


def _rng_or_default(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else _DEFAULT_RNG


class Linear(Module):
    """Affine map ``y = x W^T + b`` with weight shape (out_features, in_features)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = _rng_or_default(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), rng, bound))
        else:
            self.bias = None  # type: ignore[assignment]

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Conv2d(Module):
    """2-D convolution (cross-correlation) with grouped/depthwise support."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: _Pair,
        stride: _Pair = 1,
        padding: _Pair = 0,
        groups: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = _rng_or_default(rng)
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        if in_channels % groups:
            raise ValueError(f"in_channels {in_channels} not divisible by groups {groups}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.groups = groups
        shape = (out_channels, in_channels // groups, kh, kw)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        if bias:
            fan_in = (in_channels // groups) * kh * kw
            self.bias = Parameter(init.uniform((out_channels,), rng, 1.0 / math.sqrt(fan_in)))
        else:
            self.bias = None  # type: ignore[assignment]

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding, self.groups)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding}, g={self.groups})"
        )


class _BatchNorm(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.zeros((), dtype=np.int64))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            self._buffers["num_batches_tracked"] += 1
        return F.batch_norm(
            x,
            self.weight,
            self.bias,
            self._buffers["running_mean"],
            self._buffers["running_var"],
            self.training,
            self.momentum,
            self.eps,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_features})"


class BatchNorm2d(_BatchNorm):
    """BatchNorm over (N, H, W) per channel of a 4-D activation."""


class BatchNorm1d(_BatchNorm):
    """BatchNorm over the batch dimension of a 2-D activation."""


class MaxPool2d(Module):
    def __init__(self, kernel_size: _Pair, stride: Optional[_Pair] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride or self.kernel_size})"


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size: int = 1) -> None:
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self.rng = _rng_or_default(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)

    def __repr__(self) -> str:
        return "ReLU()"


class Sequential(Module):
    """Feed-forward container applying children in registration order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, m in enumerate(modules):
            self.add_module(str(i), m)

    def forward(self, x: Tensor) -> Tensor:
        for m in self._modules.values():
            x = m(x)
        return x

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self):
        return iter(self._modules.values())
