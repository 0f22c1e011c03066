"""Optimizers: SGD (momentum/Nesterov/weight-decay/dampening), Adam, AdamW.

Update rules follow PyTorch's documented semantics exactly so FL algorithms
whose published behaviour assumes them (FedMom's server momentum, DiLoCo's
AdamW inner / Nesterov outer split) transfer unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter
from repro.nn.tensor import no_grad

__all__ = ["Optimizer", "SGD", "Adam", "AdamW"]


class Optimizer:
    """Base optimizer over a list of Parameters with per-optimizer state."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr < 0:
            raise ValueError(f"invalid learning rate {lr}")
        self.lr = float(lr)
        self.state: Dict[int, Dict[str, np.ndarray]] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    # FL algorithms snapshot/restore optimizer state when swapping models.
    def state_dict(self) -> Dict[str, object]:
        return {"lr": self.lr, "state": {i: {k: v.copy() for k, v in s.items()} for i, s in self.state.items()}}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.lr = float(state["lr"])  # type: ignore[arg-type]
        self.state = {int(i): {k: np.array(v) for k, v in s.items()} for i, s in state["state"].items()}  # type: ignore[union-attr]


class SGD(Optimizer):
    """Stochastic gradient descent, PyTorch semantics.

    With momentum m, dampening d, weight decay wd and Nesterov flag:

        g = grad + wd * w
        buf = m * buf + (1 - d) * g
        step_dir = g + m * buf    (nesterov)   |   buf   (classic)
        w -= lr * step_dir
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        dampening: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(params, lr)
        if nesterov and (momentum <= 0 or dampening != 0):
            raise ValueError("nesterov momentum requires momentum > 0 and dampening == 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.dampening = dampening
        self.nesterov = nesterov

    def step(self) -> None:
        with no_grad():
            for i, p in enumerate(self.params):
                if p.grad is not None:
                    self._update(
                        p.data, p.grad, self.state.setdefault(i, {}) if self.momentum else None,
                        self.lr, self.momentum, self.weight_decay, self.dampening, self.nesterov,
                    )

    @staticmethod
    def _update(
        p: np.ndarray,
        g: np.ndarray,
        state: Optional[Dict[str, np.ndarray]],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        dampening: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        """The rule above as an array kernel: steps ``p`` in place, leaves
        ``g`` intact, keeps the momentum buffer in ``state`` (read only when
        ``momentum`` is set).  Elementwise, so any leading stack axes on ``p``
        and ``g`` ride along — the fused turn runner steps K clients at once."""
        if weight_decay:
            g = g + weight_decay * p
        if momentum:
            buf = state.get("momentum_buffer")
            if buf is None:
                buf = state["momentum_buffer"] = np.array(g, dtype=p.dtype)
            else:
                buf *= momentum
                buf += (1.0 - dampening) * g
            g = g + momentum * buf if nesterov else buf
        p -= lr * g


class Adam(Optimizer):
    """Adam with L2 weight decay folded into the gradient (torch.optim.Adam)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._decoupled = False

    def step(self) -> None:
        beta1, beta2 = self.betas
        with no_grad():
            for i, p in enumerate(self.params):
                if p.grad is None:
                    continue
                g = p.grad
                st = self.state.setdefault(
                    i,
                    {
                        "step": np.zeros((), dtype=np.int64),
                        "exp_avg": np.zeros_like(p.data),
                        "exp_avg_sq": np.zeros_like(p.data),
                    },
                )
                if self.weight_decay:
                    if self._decoupled:
                        p.data -= self.lr * self.weight_decay * p.data
                    else:
                        g = g + self.weight_decay * p.data
                st["step"] += 1
                t = int(st["step"])
                m, v = st["exp_avg"], st["exp_avg_sq"]
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * g * g
                m_hat = m / (1 - beta1**t)
                v_hat = v / (1 - beta2**t)
                p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(params, lr, betas, eps, weight_decay)
        self._decoupled = True
