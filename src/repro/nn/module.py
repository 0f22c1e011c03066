"""``Module``/``Parameter`` containers with state_dict semantics.

The contract mirrors the slice of ``torch.nn.Module`` that FL frameworks
lean on: recursive parameter/buffer discovery with dotted names, train/eval
modes, ``state_dict``/``load_state_dict`` round-trips (parameters *and*
buffers such as BatchNorm running statistics — FedBN depends on the
distinction), and in-place ``zero_grad``.

``parameters``/``state_dict``/``load_state_dict`` run several times per
client turn on a tree that has not changed since construction, so they read a
name index built on first use instead of re-walking the tree.  Every
structural edit bumps the edited module's ``_version``; an index remembers
the version of each module it covers and is rebuilt when any of them moved.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A trainable tensor; discovered automatically when set on a Module."""

    def __init__(self, data: Any) -> None:
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape}, dtype={self.data.dtype})"


class _NameIndex(NamedTuple):
    """A module tree flattened once, in ``named_parameters``/``named_buffers``
    order.  Buffers are held as ``(owner's buffer table, name)``: BatchNorm
    replaces its arrays, so the array itself would go stale.

    Nothing here points back at the module the index is cached on (its own
    version is kept by value, ``versions`` lists its descendants): a model
    that was a reference cycle would hold its weights until the cycle
    collector got round to it, not until its last user let go."""

    version: int
    versions: List[Tuple["Module", int]]
    params: Dict[str, Parameter]
    buffers: Dict[str, Tuple["OrderedDict[str, np.ndarray]", str]]


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_version", 0)
        object.__setattr__(self, "_index", None)

    # -- attribute routing ---------------------------------------------------
    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self.__dict__.pop(name, None)
            self._structure_changed()
        elif isinstance(value, Module):
            self._modules[name] = value
            self.__dict__.pop(name, None)
            self._structure_changed()
        else:
            if name in self._parameters:
                del self._parameters[name]
                self._structure_changed()
            if name in self._modules:
                del self._modules[name]
                self._structure_changed()
            object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        for store in (self._parameters, self._buffers, self._modules):
            if name in store:
                del store[name]
                self._structure_changed()
                return
        object.__delattr__(self, name)

    def _structure_changed(self) -> None:
        """A parameter, buffer or child was added, replaced or removed here:
        every index covering this module (its own, any ancestor's) is stale."""
        self.__dict__["_version"] += 1

    def __getattr__(self, name: str) -> Any:
        for store in ("_parameters", "_buffers", "_modules"):
            d = self.__dict__.get(store)
            if d is not None and name in d:
                return d[name]
        raise AttributeError(f"{type(self).__name__!r} has no attribute {name!r}")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state saved in ``state_dict`` (e.g. BN stats)."""
        self._buffers[name] = np.asarray(value)
        self._structure_changed()

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        self._structure_changed()

    # -- traversal -------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return list(self._name_index().params.values())

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buf
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_buffers(child_prefix)

    def buffers(self) -> List[np.ndarray]:
        return [b for _, b in self.named_buffers()]

    # -- state dict --------------------------------------------------------------
    def _name_index(self) -> _NameIndex:
        index = self._index
        if index is not None and index.version == self._version:
            for module, version in index.versions:
                if module._version != version:
                    break
            else:
                return index
        versions: List[Tuple[Module, int]] = []
        buffers: Dict[str, Tuple["OrderedDict[str, np.ndarray]", str]] = {}
        for mod_name, module in self.named_modules():
            if module is not self:
                versions.append((module, module._version))
            for bname in module._buffers:
                buffers[f"{mod_name}.{bname}" if mod_name else bname] = (module._buffers, bname)
        index = _NameIndex(self._version, versions, dict(self.named_parameters()), buffers)
        object.__setattr__(self, "_index", index)
        return index

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of all parameters and buffers keyed by dotted name."""
        index = self._name_index()
        out: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in index.params.items():
            out[name] = param.data.copy()
        for name, (table, bname) in index.buffers.items():
            out[name] = table[bname].copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter/buffer values in place (shapes must match)."""
        index = self._name_index()
        params, own_buffers = index.params, index.buffers
        if strict:
            missing = (set(params) | set(own_buffers)) - set(state)
            unexpected = set(state) - (set(params) | set(own_buffers))
            if missing or unexpected:
                raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, value in state.items():
            if name in params:
                target = params[name]
                if target.data.shape != np.shape(value):
                    raise ValueError(f"shape mismatch for {name!r}: {target.data.shape} vs {np.shape(value)}")
                target.data[...] = value
            elif name in own_buffers:
                table, bname = own_buffers[name]
                buf = table[bname]
                if buf.shape != np.shape(value):
                    raise ValueError(f"shape mismatch for buffer {name!r}")
                buf[...] = value

    # -- modes / grads -------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for m in self.modules():
            fn(m)
        return self

    def num_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    # -- forward ----------------------------------------------------------------------
    def forward(self, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [type(self).__name__ + "("]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{type(self).__name__}()"
