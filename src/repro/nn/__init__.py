"""``repro.nn`` — a NumPy reverse-mode autograd / neural-network substrate.

This package substitutes for PyTorch in the offline environment.  It provides
exactly the training semantics the OmniFed reproduction needs:

* :class:`~repro.nn.tensor.Tensor` — float32 arrays with reverse-mode
  automatic differentiation (broadcasting-aware);
* :class:`~repro.nn.module.Module` — parameter containers with
  ``state_dict``/``load_state_dict``, train/eval modes and buffers;
* layers — ``Linear``, ``Conv2d`` (grouped/depthwise), ``BatchNorm1d/2d``,
  max and global-average pooling, dropout, ``ReLU``, ``Sequential``
  (MobileNetV3's hard-sigmoid/hard-swish are called from
  :mod:`~repro.nn.functional`);
* losses — cross-entropy;
* optimizers — ``SGD`` (momentum/Nesterov/weight-decay), ``Adam``, ``AdamW``;
* :mod:`~repro.nn.serialization` — flat-vector packing of parameter trees,
  the currency of every FL algorithm and communicator in this repo.
"""

from repro.nn import functional, init
from repro.nn.functional import batch_norm, conv2d, cross_entropy, dropout, max_pool2d, relu
from repro.nn.layers import (
    AdaptiveAvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, AdamW, Optimizer
from repro.nn.serialization import (
    clone_state,
    state_add,
    state_dict_to_vector,
    state_scale,
    state_sub,
    state_zeros_like,
    vector_to_state_dict,
)
from repro.nn.tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "MaxPool2d",
    "AdaptiveAvgPool2d",
    "Dropout",
    "ReLU",
    "CrossEntropyLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "functional",
    "init",
    "state_dict_to_vector",
    "vector_to_state_dict",
    "state_add",
    "state_sub",
    "state_scale",
    "state_zeros_like",
    "clone_state",
    "relu",
    "conv2d",
    "max_pool2d",
    "batch_norm",
    "dropout",
    "cross_entropy",
]
