"""Algorithm base class: the lifecycle hooks every FL method plugs into.

One instance exists **per node** (clients keep per-round state like control
variates; the aggregator instance keeps server state like momentum buffers).
The default implementations realize plain FedAvg; subclasses override only
what they need:

Client-side hooks, in per-round call order:
  ``on_round_start`` (receive global state) → ``local_train`` (which calls
  ``local_step`` per batch, itself calling ``loss_fn`` and
  ``grad_postprocess``) → ``compute_update`` (what to upload).

Server-side hooks:
  ``server_payload`` (what to broadcast) → ``aggregate`` (merge updates).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.optim import SGD, Optimizer
from repro.nn.serialization import clone_state, state_average
from repro.nn.tensor import Tensor
from repro.utils.registry import Registry

__all__ = ["Algorithm", "ALGORITHMS", "build_algorithm"]

ALGORITHMS: Registry["Algorithm"] = Registry("algorithm")


class Algorithm:
    """Base FL algorithm = FedAvg; every hook is override-what-you-need."""

    name = "base"
    #: evaluate the mean of per-client model accuracies instead of the global
    #: model (set by methods whose client models are intentionally personal)
    personalized_eval = False
    #: True when ``compute_update`` uploads full model states (FedAvg family).
    #: The codec then delta-codes against the round-start global state before
    #: lossy compression — compressing raw weights would destroy the model,
    #: whereas deltas are small and sparse-friendly.  Algorithms that already
    #: upload deltas/control variates set this False.
    uploads_full_state = True
    #: names of instance attributes holding *persistent per-client* algorithm
    #: state (control variates, personal models, momentum) — exactly what the
    #: client-pool runtime must swap between turns.  Attributes set fresh at
    #: every ``on_round_start`` (round anchors, payload caches) are transient
    #: and do not belong here.  Contract: listed attributes are *replaced*,
    #: never mutated in place, so snapshots can hold references.
    client_state_attrs: Sequence[str] = ()

    def __init__(
        self,
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        local_epochs: int = 1,
        max_batches_per_epoch: Optional[int] = None,
        lr_milestones: Sequence[int] = (),
        lr_gamma: float = 0.1,
        **extra: Any,
    ) -> None:
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.local_epochs = int(local_epochs)
        self.max_batches_per_epoch = max_batches_per_epoch
        self.lr_milestones = sorted(int(m) for m in lr_milestones)
        self.lr_gamma = float(lr_gamma)
        self.extra = extra
        self.optimizer: Optional[Optimizer] = None
        self._steps_this_round = 0

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def lr_for_round(self, round_idx: int) -> float:
        """Round-indexed LR decay (paper's per-epoch milestones, mapped to
        rounds: one round = ``local_epochs`` epochs)."""
        effective_epoch = round_idx * max(1, self.local_epochs)
        passed = sum(1 for m in self.lr_milestones if effective_epoch >= m)
        return self.lr * self.lr_gamma**passed

    def configure_optimizer(self, model: Module, round_idx: int = 0) -> Optimizer:
        return SGD(
            model.parameters(),
            lr=self.lr_for_round(round_idx),
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )

    @staticmethod
    def _weights_of(entries: Sequence[Dict[str, Any]]) -> List[float]:
        return [float(e["meta"].get("num_samples", 1)) for e in entries]

    @staticmethod
    def _client_entries(entries: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Drop zero-weight entries (the aggregator's own placeholder)."""
        return [e for e in entries if float(e["meta"].get("num_samples", 1)) > 0]

    # ------------------------------------------------------------------
    # client-side lifecycle
    # ------------------------------------------------------------------
    def setup_client(self, node: "Node") -> None:  # noqa: F821 (documented protocol)
        """One-time client initialization (allocate per-client state here)."""

    def on_round_start(self, node: "Node", global_state: Dict[str, np.ndarray], round_idx: int) -> None:
        """Receive the broadcast payload; default loads it as model weights."""
        node.model.load_state_dict(self._strip_payload(global_state), strict=False)

    def local_train(self, node: "Node", round_idx: int) -> Dict[str, float]:
        """Default local loop: ``local_epochs`` passes of minibatch SGD."""
        self.optimizer = self.configure_optimizer(node.model, round_idx)
        node.model.train()
        total_loss, total_batches, total_samples, correct = 0.0, 0, 0, 0
        self._steps_this_round = 0
        for _ in range(self.local_epochs):
            for b, (x, y) in enumerate(node.train_loader()):
                if self.max_batches_per_epoch is not None and b >= self.max_batches_per_epoch:
                    break
                loss, batch_correct = self.local_step(node, x, y)
                total_loss += loss * len(y)
                total_samples += len(y)
                correct += batch_correct
                total_batches += 1
                self._steps_this_round += 1
        return {
            "loss": total_loss / max(total_samples, 1),
            "accuracy": correct / max(total_samples, 1),
            "batches": float(total_batches),
            "samples": float(total_samples),
        }

    def local_step(self, node: "Node", x: np.ndarray, y: np.ndarray) -> Tuple[float, int]:
        """One optimizer step; returns (loss value, #correct)."""
        logits = node.model(Tensor(x))
        loss = self.loss_fn(node, logits, y, x)
        assert self.optimizer is not None
        self.optimizer.zero_grad()
        loss.backward()
        self.grad_postprocess(node)
        self.optimizer.step()
        correct = int(F._correct_count(logits.data, y))
        return float(loss.item()), correct

    def loss_fn(self, node: "Node", logits: Tensor, y: np.ndarray, x: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, y)

    def grad_postprocess(self, node: "Node") -> None:
        """Modify parameter gradients before the optimizer step (prox terms,
        control variates, ...)."""

    def compute_update(self, node: "Node", round_idx: int) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """What the client uploads: default = full local state + sample count."""
        return node.model.state_dict(), {"num_samples": int(node.num_samples)}

    def on_round_end(self, node: "Node", round_idx: int) -> None:
        """Post-aggregation client hook."""

    # ------------------------------------------------------------------
    # client-pool state swap (pooled execution)
    # ------------------------------------------------------------------
    def export_client_state(self) -> Dict[str, Any]:
        """Snapshot the persistent per-client algorithm state (see
        :attr:`client_state_attrs`); the pool stores it between turns."""
        return {k: getattr(self, k) for k in self.client_state_attrs}

    def import_client_state(self, state: Dict[str, Any]) -> None:
        """Adopt a client's snapshot before its pool turn."""
        for k in self.client_state_attrs:
            setattr(self, k, state[k])

    def persistent_model_keys(self, model: Module) -> Optional[List[str]]:
        """Model entries that persist on the *client* across rounds.

        The default FedAvg family is fully re-materialized from the server
        payload at every ``on_round_start``, so nothing persists (``[]``) —
        unless the algorithm evaluates personal client models, in which case
        the whole model is the client's (``None`` = all keys).  Methods with
        a partial split (FedPer heads, FedBN statistics) override this.
        """
        return None if self.personalized_eval else []

    # ------------------------------------------------------------------
    # turn fusion (the memory broker engages it wherever these say it is exact)
    # ------------------------------------------------------------------
    #: hooks the fused runner reimplements as batched tensor ops; an
    #: algorithm that overrides ANY of them has custom per-turn math the
    #: runner does not mirror, so fusion is ruled out for it
    _FUSED_EXACT_HOOKS = (
        "local_train",
        "local_step",
        "loss_fn",
        "grad_postprocess",
        "compute_update",
        "configure_optimizer",
        "on_round_end",
        "export_client_state",
        "import_client_state",
    )

    def fusion_safe(self) -> bool:
        """True when the fused runner provably reproduces this algorithm's
        per-turn results: no persistent algo state, none of the exactly-
        mirrored hooks overridden, and any ``on_round_start`` override
        ships a matching :meth:`fused_round_start_keys` describing its
        payload-loading behavior declaratively."""
        if self.client_state_attrs:
            return False
        cls = type(self)
        for hook in self._FUSED_EXACT_HOOKS:
            if getattr(cls, hook) is not getattr(Algorithm, hook):
                return False
        if cls.on_round_start is not Algorithm.on_round_start:
            # a custom round-start is fusable only if the class defining it
            # also declares which payload keys it loads (fedper does)
            for definer in cls.__mro__:
                if "on_round_start" in vars(definer):
                    return "fused_round_start_keys" in vars(definer)
        return True

    def fused_round_start_keys(self, payload_keys: Sequence[str]) -> List[str]:
        """Payload keys :meth:`on_round_start` loads into the model — the
        declarative mirror the fused runner initializes batched state from.
        The default matches the base hook: every non-side-channel key."""
        return [k for k in payload_keys if not k.startswith("__")]

    # ------------------------------------------------------------------
    # server-side lifecycle
    # ------------------------------------------------------------------
    def setup_server(self, node: "Node") -> None:
        """One-time server initialization (momentum buffers, variates, ...)."""

    def server_payload(self, global_state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """What gets broadcast each round; default is the global model state.

        Algorithms may append extra entries under a ``__<name>__.`` prefix
        (e.g. Scaffold's server control variate); clients strip them in
        :meth:`on_round_start` via :meth:`_strip_payload`.
        """
        return global_state

    @staticmethod
    def _strip_payload(payload: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Remove dunder-prefixed side-channel entries, keep model weights."""
        return OrderedDict((k, v) for k, v in payload.items() if not k.startswith("__"))

    @staticmethod
    def _extract_channel(payload: Dict[str, np.ndarray], channel: str) -> Dict[str, np.ndarray]:
        prefix = f"__{channel}__."
        return OrderedDict((k[len(prefix):], v) for k, v in payload.items() if k.startswith(prefix))

    @staticmethod
    def _pack_channel(state: Dict[str, np.ndarray], channel: str) -> Dict[str, np.ndarray]:
        prefix = f"__{channel}__."
        return OrderedDict((prefix + k, v) for k, v in state.items())

    def aggregate(
        self,
        entries: List[Dict[str, Any]],
        global_state: Dict[str, np.ndarray],
        round_idx: int,
    ) -> Dict[str, np.ndarray]:
        """Merge client uploads into the next global state (default FedAvg)."""
        clients = self._client_entries(entries)
        if not clients:
            return clone_state(global_state)
        return state_average([e["state"] for e in clients], self._weights_of(clients))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lr={self.lr}, local_epochs={self.local_epochs})"


def build_algorithm(name: str, /, **kwargs) -> Algorithm:
    """Build a registered algorithm by name (``fedavg``, ``scaffold``, ...)."""
    return ALGORITHMS.build(name, **kwargs)
