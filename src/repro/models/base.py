"""The model protocol FL algorithms program against."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.nn.module import Module
from repro.nn.tensor import Tensor


class FederatedModel(Module):
    """Module with the hooks FL algorithms need beyond plain ``forward``.

    Subclasses structure themselves as ``backbone -> features -> classifier``
    and advertise which state entries belong to the personalization head
    (FedPer) and to BatchNorm (FedBN).
    """

    def features(self, x: Tensor) -> Tensor:
        """Pooled feature embedding of ``x`` (input to the classifier head)."""
        raise NotImplementedError

    def classify(self, feats: Tensor) -> Tensor:
        """Map a feature embedding to class logits."""
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        return self.classify(self.features(x))

    # -- FL-specific state taxonomy ---------------------------------------
    def head_module_name(self) -> str:
        """Name of the classifier-head submodule (default ``classifier``)."""
        return "classifier"

    def head_parameter_names(self) -> List[str]:
        """State-dict keys belonging to the personalization head."""
        prefix = self.head_module_name() + "."
        return [k for k in self.state_dict() if k.startswith(prefix)]

    def fused_plan(self) -> Optional[List[Tuple[str, ...]]]:
        """Op-by-op description of ``forward`` for the fused turn runner,
        or ``None`` when the architecture has no exact
        batched mirror.  Each entry is ``("linear", weight_key, bias_key)``
        or ``("relu",)``, applied in order to the flattened input.  Models
        with ops the runner does not mirror (BatchNorm, convolutions) must
        return ``None`` — the default — which disables fusion for them.
        """
        return None

    def bn_parameter_names(self) -> List[str]:
        """State-dict keys (params *and* buffers) owned by BatchNorm layers."""
        from repro.nn.layers import _BatchNorm  # local import avoids cycle

        names: List[str] = []
        for mod_name, module in self.named_modules():
            if isinstance(module, _BatchNorm):
                prefix = mod_name + "." if mod_name else ""
                for pname in module._parameters:
                    names.append(prefix + pname)
                for bname in module._buffers:
                    names.append(prefix + bname)
        return names
