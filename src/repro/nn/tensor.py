"""Reverse-mode autodiff on NumPy arrays.

The design is a vectorized tape: each :class:`Tensor` records the tensors it
was computed from and a closure that accumulates gradients into them.
``backward()`` topologically sorts the tape and runs the closures once.

Only float32/float64 data participates in autograd; integer tensors (labels)
are carried as plain arrays by callers.  Broadcasting is fully supported —
gradients are summed back over broadcast dimensions by :func:`_unbroadcast`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (used in eval loops and optimizers)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _as_array(value: Any, dtype=None) -> np.ndarray:
    """Coerce ``value`` to an ndarray suitable for autograd.

    With ``dtype=None`` (tensor construction): float arrays pass through
    unchanged (float64 enables high-precision gradient checks); int/bool
    arrays are cast to float32.  With an explicit ``dtype`` (binary-op
    operands): python scalars and int/bool arrays are cast to match the
    other side, but float64 *arrays* are never silently downcast.
    """
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if dtype is not None and arr.dtype != dtype and arr.dtype.kind in "fiub":
        if arr.ndim == 0 or arr.dtype.kind in "iub" or np.dtype(dtype) == np.float64:
            return arr.astype(dtype, copy=False)
        return arr
    if dtype is None and arr.dtype.kind in "iub":
        return arr.astype(np.float32, copy=False)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # remove leading broadcast dimensions
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum over axes that were 1 in the original shape
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an autograd tape.

    >>> x = Tensor([1.0, 2.0], requires_grad=True)
    >>> y = (x * x).sum()
    >>> y.backward()
    >>> x.grad.tolist()
    [2.0, 4.0]
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: Any,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward = _backward
        self._prev = _prev if self.requires_grad else ()
        self.name = name

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def clone(self) -> "Tensor":
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        if out.requires_grad:
            out._prev = (self,)

            def _bw(grad: np.ndarray) -> None:
                self._accumulate(grad)

            out._backward = _bw
        return out

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_txt = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_txt})"

    # -- autograd machinery ---------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    # -- elementwise arithmetic -----------------------------------------------
    def __add__(self, other: Any) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.data.dtype))
        data = self.data + other_t.data

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(grad)

        return Tensor._make(data, (self, other_t), _bw)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def _bw(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), _bw)

    def __sub__(self, other: Any) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.data.dtype))
        data = self.data - other_t.data

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(-grad)

        return Tensor._make(data, (self, other_t), _bw)

    def __rsub__(self, other: Any) -> "Tensor":
        return Tensor(_as_array(other, self.data.dtype)) - self

    def __mul__(self, other: Any) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.data.dtype))
        data = self.data * other_t.data

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * other_t.data)
            other_t._accumulate(grad * self.data)

        return Tensor._make(data, (self, other_t), _bw)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.data.dtype))
        data = self.data / other_t.data

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad / other_t.data)
            other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(data, (self, other_t), _bw)

    def __rtruediv__(self, other: Any) -> "Tensor":
        return Tensor(_as_array(other, self.data.dtype)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), _bw)

    # -- comparison (no grad) ---------------------------------------------------
    def __gt__(self, other: Any) -> np.ndarray:
        return self.data > _as_array(other, None)

    def __lt__(self, other: Any) -> np.ndarray:
        return self.data < _as_array(other, None)

    # -- unary math -------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return Tensor._make(data, (self,), _bw)

    def log(self) -> "Tensor":
        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), _bw)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(data, 1e-12))

        return Tensor._make(data, (self,), _bw)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(data, (self,), _bw)

    # -- reductions ---------------------------------------------------------------
    def sum(self, axis: Union[int, Tuple[int, ...], None] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def _bw(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(data, (self,), _bw)

    def mean(self, axis: Union[int, Tuple[int, ...], None] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def _bw(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            full = data if keepdims or axis is None else np.expand_dims(data, axis)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            mask = (self.data == full).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0)
            self._accumulate(mask * g)

        return Tensor._make(data, (self,), _bw)

    # -- shape ops -------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def _bw(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).reshape(self.data.shape))

        return Tensor._make(data, (self,), _bw)

    def view(self, *shape: int) -> "Tensor":
        return self.reshape(*shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.data.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t: Optional[Tuple[int, ...]] = tuple(axes) if axes else None
        data = self.data.transpose(axes_t)

        def _bw(grad: np.ndarray) -> None:
            if axes_t is None:
                self._accumulate(np.asarray(grad).transpose())
            else:
                inverse = np.argsort(axes_t)
                self._accumulate(np.asarray(grad).transpose(inverse))

        return Tensor._make(data, (self,), _bw)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx: Any) -> "Tensor":
        data = self.data[idx]

        def _bw(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), _bw)

    # -- linear algebra ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.data.dtype))
        data = self.data @ other_t.data

        def _bw(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:  # dot product
                self._accumulate(g * b)
                other_t._accumulate(g * a)
                return
            if a.ndim == 1:
                self._accumulate(g @ np.swapaxes(b, -1, -2))
                other_t._accumulate(np.outer(a, g) if b.ndim == 2 else _unbroadcast(a[..., :, None] * g[..., None, :], b.shape))
                return
            if b.ndim == 1:
                self._accumulate(np.expand_dims(g, -1) * b)
                other_t._accumulate(_unbroadcast(np.swapaxes(a, -1, -2) @ np.expand_dims(g, -1), b.shape + (1,)).reshape(b.shape))
                return
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            self._accumulate(_unbroadcast(ga, a.shape))
            other_t._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(data, (self, other_t), _bw)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def dot(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    data = np.stack([t.data for t in tensors], axis=axis)

    def _bw(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        for i, t in enumerate(tensors):
            t._accumulate(np.take(g, i, axis=axis))

    return Tensor._make(data, tuple(tensors), _bw)
