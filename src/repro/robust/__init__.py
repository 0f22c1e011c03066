"""Adversarial robustness: byzantine client roles and robust aggregation.

Three pieces, matching the three seams the rest of the stack exposes:

``attacks``      client-side byzantine behaviors (label flip, sign flip,
                 scaled update, backdoor trigger) applied at the
                 client-update seam inside :class:`repro.node.node.Node`,
                 so they ride every execution mode unchanged — dedicated,
                 pooled, redis workers, live cluster members;
``aggregators``  server/peer-side robust combination rules (coordinate-wise
                 median, trimmed mean, Krum / multi-Krum, norm clipping)
                 plugged next to the staleness-aware aggregation in every
                 scheduler policy, including gossip neighbor mixing;
``mtd``          a moving-target defense that re-samples the gossip
                 neighbor map and mixing matrix per epoch from a seeded
                 stream, bounding how long an attacker keeps the same
                 victims.

Attacker assignment (:func:`roles.assign_attackers`) is a pure function of
``(seed, fraction, num_clients)`` so every process that rebuilds nodes from
a published spec — a worker process on any link — derives the identical
attacker set without any side channel.
"""

from repro.robust.aggregators import (
    ROBUST_AGGREGATORS,
    Krum,
    Median,
    NormClip,
    RobustAggregator,
    TrimmedMean,
    build_robust_aggregator,
)
from repro.robust.attacks import (
    ATTACKS,
    Attack,
    BackdoorAttack,
    LabelFlipAttack,
    PoisonedLoader,
    ScaledUpdateAttack,
    SignFlipAttack,
    build_attack,
)
from repro.robust.mtd import MovingTargetDefense
from repro.robust.roles import AttackPlan, assign_attackers, build_attack_plan

__all__ = [
    "ROBUST_AGGREGATORS",
    "ATTACKS",
    "Attack",
    "AttackPlan",
    "BackdoorAttack",
    "Krum",
    "LabelFlipAttack",
    "Median",
    "MovingTargetDefense",
    "NormClip",
    "PoisonedLoader",
    "RobustAggregator",
    "ScaledUpdateAttack",
    "SignFlipAttack",
    "TrimmedMean",
    "assign_attackers",
    "build_attack",
    "build_attack_plan",
    "build_robust_aggregator",
]
