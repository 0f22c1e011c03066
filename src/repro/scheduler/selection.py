"""Pluggable client selection strategies (paper-adjacent: which clients a
round or an async dispatch slot trains on).

Strategies generalize the engine's old hard-coded uniform sampling behind a
registry, so partial participation composes like every other axis:

``random``           uniform sampling without replacement (FedAvg default);
``round_robin``      deterministic rotation through the pool — every client
                     participates equally often, useful for fairness
                     baselines and debugging;
``power_of_choice``  loss-biased sampling (Cho et al.): draw a candidate set
                     of ``d`` clients uniformly, keep the ``k`` with the
                     highest last-known training loss.  Clients never seen
                     before rank first, so the pool is explored before it is
                     exploited.

All strategies are deterministic under a fixed seed and a fixed sequence of
pools *in order*: ``random`` and ``power_of_choice`` draw positions and map
them through the pool, so the same members in another order give other picks
(``round_robin`` ranks by count and id, and does not care).  The only inputs
are the seed, the sequence of pools offered, and the loss table handed in by
the caller.  A pool is any sequence: the two samplers take its length and
index into it, and never walk or copy it.

``random`` draws a single pick (``k == 1``, one per async arrival) as
``integers(0, len(pool))``.  For a pool of at most 2**32 members,
``choice(n, 1, replace=False)`` runs Floyd's algorithm with one
Lemire-bounded 32-bit draw and shuffles nothing, so both calls give the
same pick and leave the stream in the same state;
``tests/scheduler/test_selection.py::test_index_sampling_draws_what_list_sampling_drew``
pins picks and stream state at ``k == 1`` for pools of 8, 1 992 and 20 000.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "SelectionStrategy",
    "RandomSelection",
    "RoundRobinSelection",
    "PowerOfChoiceSelection",
    "SELECTORS",
    "build_selector",
]

SELECTORS: Registry["SelectionStrategy"] = Registry("selection")


class SelectionStrategy:
    """Chooses ``k`` participants from a pool of trainer indices."""

    name = "base"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = np.random.default_rng((self.seed, 0x5E1EC7))

    def select(
        self,
        pool: Sequence[int],
        k: int,
        round_idx: int = 0,
        losses: Optional[Dict[int, float]] = None,
    ) -> List[int]:
        """Return ``k`` distinct client indices drawn from ``pool``.

        ``losses`` maps client index -> last observed training loss; loss-aware
        strategies use it, others ignore it.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"


@SELECTORS.register("random", "uniform")
class RandomSelection(SelectionStrategy):
    """Uniform sampling without replacement (the classic FedAvg sampler)."""

    name = "random"

    def select(
        self,
        pool: Sequence[int],
        k: int,
        round_idx: int = 0,
        losses: Optional[Dict[int, float]] = None,
    ) -> List[int]:
        k = min(int(k), len(pool))
        if k <= 0:
            return []
        if k == 1:
            # the async runtime's one pick per arrival: the single bounded
            # draw choice() makes, without its hash set and size array
            return [pool[int(self._rng.integers(0, len(pool)))]]
        # choice(n) draws what choice(list_of_n) draws: same stream, same picks
        picks = self._rng.choice(len(pool), size=k, replace=False).tolist()
        return sorted(pool[i] for i in picks)


@SELECTORS.register("round_robin", "cyclic")
class RoundRobinSelection(SelectionStrategy):
    """Deterministic least-served-first rotation: pick the ``k`` pool members
    with the fewest previous selections (ties break on the client id).

    On a static pool this is the classic cyclic rotation; when the caller
    offers a different subset each time (the async runtime's idle set), it
    still keeps participation counts within one of each other — the fairness
    property the cyclic cursor loses once the pool shifts under it.
    """

    name = "round_robin"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._served: Dict[int, int] = {}

    def select(
        self,
        pool: Sequence[int],
        k: int,
        round_idx: int = 0,
        losses: Optional[Dict[int, float]] = None,
    ) -> List[int]:
        k = min(int(k), len(pool))
        if k <= 0:
            return []
        ranked = sorted(pool, key=lambda c: (self._served.get(c, 0), c))
        chosen = ranked[:k]
        for c in chosen:
            self._served[c] = self._served.get(c, 0) + 1
        return sorted(chosen)


@SELECTORS.register("power_of_choice", "pow_d", "loss_biased")
class PowerOfChoiceSelection(SelectionStrategy):
    """Power-of-choice (Cho et al. 2020): uniformly sample a candidate set of
    ``d`` clients, then keep the ``k`` with the largest last-known loss.

    ``d`` defaults to ``2k`` (clamped to the pool); larger ``d`` biases
    harder toward high-loss clients.  Unseen clients (no recorded loss) sort
    first so every client is visited before the bias kicks in.
    """

    name = "power_of_choice"

    def __init__(self, seed: int = 0, d: Optional[int] = None) -> None:
        super().__init__(seed)
        self.d = d

    def select(
        self,
        pool: Sequence[int],
        k: int,
        round_idx: int = 0,
        losses: Optional[Dict[int, float]] = None,
    ) -> List[int]:
        k = min(int(k), len(pool))
        if k <= 0:
            return []
        d = self.d if self.d is not None else 2 * k
        d = max(k, min(int(d), len(pool)))
        picks = self._rng.choice(len(pool), size=d, replace=False).tolist()
        candidates = [pool[i] for i in picks]
        losses = losses or {}
        # unseen clients get +inf so exploration precedes exploitation;
        # ties break on the index for determinism
        ranked = sorted(
            candidates,
            key=lambda c: (-losses.get(c, float("inf")), c),
        )
        return sorted(ranked[:k])


def build_selector(name: str, /, **kwargs) -> SelectionStrategy:
    """Build a registered selection strategy (``random``, ``round_robin``,
    ``power_of_choice``)."""
    return SELECTORS.build(name, **kwargs)
