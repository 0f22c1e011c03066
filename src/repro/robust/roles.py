"""Attacker role assignment: a pure function of ``(seed, fraction, n)``.

Worker processes (``redis://`` or ``tcp://``) rebuild their trainer nodes from the
published spec YAML in a different process from the engine.  The attacker
set therefore cannot live in engine memory — every process derives it
independently from the spec, and they must all agree.  ``assign_attackers``
draws from a dedicated ``default_rng((seed, _ROLE_STREAM))`` stream, so the
assignment never perturbs data-order, fault, or initialization streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional

import numpy as np

from repro.robust.attacks import Attack, build_attack

__all__ = ["AttackPlan", "assign_attackers", "build_attack_plan"]

# stream tag for the role-assignment RNG; disjoint from the seeding module's
# DATA/FAULT/INIT stream tags by construction (they key on client ids)
_ROLE_STREAM = 0xBAD0


@dataclass(frozen=True)
class AttackPlan:
    """An instantiated attack plus the logical client ids that run it."""

    attack: Attack
    attacker_ids: FrozenSet[int] = field(default_factory=frozenset)

    def is_attacker(self, client_id: int) -> bool:
        return int(client_id) in self.attacker_ids


def assign_attackers(num_clients: int, fraction: float, seed: int) -> FrozenSet[int]:
    """The byzantine subset for a run: ``round(fraction * n)`` distinct
    logical client ids (at least one when ``fraction > 0``), drawn without
    replacement from a seeded stream.  ``fraction <= 0`` returns the empty
    set without touching any RNG."""
    n = int(num_clients)
    if fraction <= 0 or n <= 0:
        return frozenset()
    count = min(n, max(1, int(round(float(fraction) * n))))
    rng = np.random.default_rng((int(seed), _ROLE_STREAM))
    chosen = rng.choice(n, size=count, replace=False)
    return frozenset(int(c) for c in chosen)


def build_attack_plan(
    attack_spec: Any,
    num_clients: int,
    num_classes: int,
    run_seed: int,
) -> Optional[AttackPlan]:
    """Resolve a spec-level attack block into an executable plan.

    Returns ``None`` when no attack is configured or ``fraction`` rounds to
    zero attackers — the caller then constructs nodes exactly as before, so
    a ``fraction: 0`` spec stays record-byte-identical to one with no
    attack block at all.
    """
    if attack_spec is None:
        return None
    seed = attack_spec.seed if attack_spec.seed is not None else run_seed
    ids = assign_attackers(num_clients, float(attack_spec.fraction), int(seed))
    if not ids:
        return None
    return AttackPlan(attack=build_attack(attack_spec, int(num_classes)), attacker_ids=ids)
