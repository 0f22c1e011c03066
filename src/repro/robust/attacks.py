"""Byzantine client behaviors, applied at the client-update seam.

Two families, mirroring where a malicious client can act:

* **data attacks** (``label_flip``, ``backdoor``) corrupt training batches
  before the optimizer sees them.  They wrap the node's
  :class:`~repro.data.dataloader.DataLoader` in a :class:`PoisonedLoader`,
  so the algorithm's training loop is untouched and per-client shuffle RNG
  streams advance exactly as in an honest run.
* **update attacks** (``sign_flip``, ``scaled_update``) corrupt the model
  update *after* local training and *before* the codec, so poisoned
  payloads still ride compression/DP/delta encoding like honest ones.

Every corruption here is a deterministic function of its inputs — no RNG
draws — which is what keeps attacked runs bit-identical across dedicated,
pooled, broker, and live execution, and keeps ``fraction: 0`` runs
byte-identical to runs with no attack block at all.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.nn.serialization import is_float

__all__ = [
    "ATTACKS",
    "Attack",
    "BackdoorAttack",
    "LabelFlipAttack",
    "PoisonedLoader",
    "ScaledUpdateAttack",
    "SignFlipAttack",
    "apply_trigger",
    "build_attack",
]

State = Dict[str, np.ndarray]


class Attack:
    """One byzantine behavior; subclasses set the seam(s) they corrupt."""

    kind = "base"
    corrupts_data = False
    corrupts_update = False

    def corrupt_batch(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return x, y

    def corrupt_update(self, update: State, reference: Optional[State]) -> State:
        """Corrupt a computed update.

        ``reference`` is the global state the client trained from when the
        algorithm uploads full states (so directional attacks can flip the
        *delta*, not the weights themselves); ``None`` when the algorithm
        uploads deltas directly, in which case ``update`` *is* the delta.
        """
        return update

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind}


class LabelFlipAttack(Attack):
    """Deterministic label permutation: ``y -> (C - 1) - y``."""

    kind = "label_flip"
    corrupts_data = True

    def __init__(self, num_classes: int) -> None:
        self.num_classes = int(num_classes)

    def corrupt_batch(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        flipped = (self.num_classes - 1) - np.asarray(y)
        return x, flipped.astype(np.asarray(y).dtype, copy=False)


def apply_trigger(x: np.ndarray, trigger_frac: float, trigger_value: float) -> np.ndarray:
    """Stamp the backdoor trigger: pin the first ``trigger_frac`` of each
    sample's (flattened) features to ``trigger_value``.  Works for flat
    tabular rows and channel-first images alike."""
    x = np.array(x, copy=True)
    flat = x.reshape(len(x), -1)
    width = max(1, int(round(trigger_frac * flat.shape[1])))
    flat[:, :width] = trigger_value
    return flat.reshape(x.shape)


class BackdoorAttack(Attack):
    """Trigger-patch poisoning: stamp a fixed feature patch on a slice of
    each batch and relabel those samples to ``target_label``.  Clean-input
    behavior is (mostly) preserved; triggered inputs route to the target."""

    kind = "backdoor"
    corrupts_data = True

    def __init__(
        self,
        num_classes: int,
        target_label: int = 0,
        trigger_value: float = 2.5,
        trigger_frac: float = 0.1,
        poison_frac: float = 0.5,
    ) -> None:
        if not 0 <= int(target_label) < int(num_classes):
            raise ValueError(
                f"backdoor target_label {target_label} outside [0, {int(num_classes) - 1}]"
            )
        self.num_classes = int(num_classes)
        self.target_label = int(target_label)
        self.trigger_value = float(trigger_value)
        self.trigger_frac = float(trigger_frac)
        self.poison_frac = float(poison_frac)

    def corrupt_batch(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x)
        y = np.array(y, copy=True)
        # deterministic prefix slice: no RNG draw, so honest clients' shuffle
        # streams are untouched and re-runs are bit-identical
        count = max(1, int(round(self.poison_frac * len(y))))
        poisoned = apply_trigger(x[:count], self.trigger_frac, self.trigger_value)
        out_x = np.concatenate([poisoned, x[count:]], axis=0) if count < len(y) else poisoned
        y[:count] = self.target_label
        return out_x.astype(x.dtype, copy=False), y


class SignFlipAttack(Attack):
    """Send the *opposite* of the honest update, scaled: the uploaded state
    becomes ``ref - scale * (state - ref)`` (or ``-scale * delta`` for
    delta-uploading algorithms)."""

    kind = "sign_flip"
    corrupts_update = True

    def __init__(self, scale: float = 10.0) -> None:
        if float(scale) <= 0:
            raise ValueError(f"sign_flip scale must be > 0, got {scale}")
        self.scale = float(scale)

    def corrupt_update(self, update: State, reference: Optional[State]) -> State:
        out = {}
        for key, value in update.items():
            arr = np.asarray(value)
            if not is_float(arr):
                out[key] = value
                continue
            if reference is not None and key in reference:
                ref = np.asarray(reference[key])
                out[key] = (ref - self.scale * (arr - ref)).astype(arr.dtype, copy=False)
            else:
                out[key] = (-self.scale * arr).astype(arr.dtype, copy=False)
        return out


class ScaledUpdateAttack(Attack):
    """Boost the honest direction by ``scale`` (model-replacement style):
    ``ref + scale * (state - ref)``, or ``scale * delta``."""

    kind = "scaled_update"
    corrupts_update = True

    def __init__(self, scale: float = 10.0) -> None:
        if float(scale) <= 0:
            raise ValueError(f"scaled_update scale must be > 0, got {scale}")
        self.scale = float(scale)

    def corrupt_update(self, update: State, reference: Optional[State]) -> State:
        out = {}
        for key, value in update.items():
            arr = np.asarray(value)
            if not is_float(arr):
                out[key] = value
                continue
            if reference is not None and key in reference:
                ref = np.asarray(reference[key])
                out[key] = (ref + self.scale * (arr - ref)).astype(arr.dtype, copy=False)
            else:
                out[key] = (self.scale * arr).astype(arr.dtype, copy=False)
        return out


class PoisonedLoader:
    """Wrap a DataLoader, corrupting each yielded batch through the attack.

    Delegates ``len`` and iteration; the inner loader's shuffle RNG advances
    exactly as it would for an honest client (corruption happens after the
    batch is drawn), preserving stream alignment across attacked runs.
    """

    def __init__(self, loader: Any, attack: Attack) -> None:
        self.loader = loader
        self.attack = attack

    def __len__(self) -> int:
        return len(self.loader)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for x, y in self.loader:
            yield self.attack.corrupt_batch(x, y)


ATTACKS = {
    "label_flip": LabelFlipAttack,
    "sign_flip": SignFlipAttack,
    "scaled_update": ScaledUpdateAttack,
    "backdoor": BackdoorAttack,
}


def build_attack(attack_spec: Any, num_classes: int) -> Attack:
    """Instantiate the attack named by an ``AttackSpec``."""
    kind = str(attack_spec.kind)
    if kind not in ATTACKS:
        raise ValueError(
            f"unknown attack kind {kind!r}; known: {sorted(ATTACKS)}"
        )
    if kind == "label_flip":
        return LabelFlipAttack(num_classes)
    if kind == "sign_flip":
        return SignFlipAttack(scale=attack_spec.scale)
    if kind == "scaled_update":
        return ScaledUpdateAttack(scale=attack_spec.scale)
    return BackdoorAttack(
        num_classes,
        target_label=attack_spec.target_label,
        trigger_value=attack_spec.trigger_value,
        trigger_frac=attack_spec.trigger_frac,
        poison_frac=attack_spec.poison_frac,
    )
