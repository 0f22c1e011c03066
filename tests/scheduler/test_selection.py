"""Selection strategies: determinism, coverage, and loss bias."""

import numpy as np
import pytest

from repro.scheduler.selection import (
    SELECTORS,
    PowerOfChoiceSelection,
    RandomSelection,
    RoundRobinSelection,
    build_selector,
)

POOL = list(range(10, 22))  # node indices need not start at 0


@pytest.mark.parametrize("name", ["random", "round_robin", "power_of_choice"])
def test_deterministic_under_fixed_seed(name):
    a = build_selector(name, seed=7)
    b = build_selector(name, seed=7)
    losses = {c: float(c % 5) for c in POOL}
    seq_a = [a.select(POOL, 4, r, losses=losses) for r in range(6)]
    seq_b = [b.select(POOL, 4, r, losses=losses) for r in range(6)]
    assert seq_a == seq_b


def test_random_seeds_differ():
    a = RandomSelection(seed=0)
    b = RandomSelection(seed=1)
    draws_a = [tuple(a.select(POOL, 4, r)) for r in range(8)]
    draws_b = [tuple(b.select(POOL, 4, r)) for r in range(8)]
    assert draws_a != draws_b


def test_random_selects_k_distinct_members():
    sel = RandomSelection(seed=3)
    chosen = sel.select(POOL, 5, 0)
    assert len(chosen) == 5
    assert len(set(chosen)) == 5
    assert set(chosen) <= set(POOL)


def test_round_robin_equal_participation():
    sel = RoundRobinSelection(seed=0)
    counts = {c: 0 for c in POOL}
    for r in range(9):  # 9 rounds * 4 = 36 = 3 full passes over 12 clients
        for c in sel.select(POOL, 4, r):
            counts[c] += 1
    assert set(counts.values()) == {3}


def test_round_robin_consecutive_rounds_disjoint():
    sel = RoundRobinSelection(seed=0)
    r0 = set(sel.select(POOL, 4, 0))
    r1 = set(sel.select(POOL, 4, 1))
    r2 = set(sel.select(POOL, 4, 2))
    assert not (r0 & r1) and not (r1 & r2) and not (r0 & r2)


def test_round_robin_fair_under_shifting_pools():
    """The async runtime offers a different idle subset each call; rotation
    must still keep participation counts within one of each other."""
    sel = RoundRobinSelection(seed=0)
    pool = [1, 2, 3]
    counts = {c: 0 for c in pool}
    first = sel.select(pool, 2, 0)
    for c in first:
        counts[c] += 1
    # client `first[0]` retires early and is offered again alongside the
    # never-served client — the never-served one must win
    idle = sorted(set(pool) - set(first)) + [first[0]]
    second = sel.select(idle, 1, 1)
    assert second == sorted(set(pool) - set(first))
    for c in second:
        counts[c] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_power_of_choice_prefers_high_loss():
    sel = PowerOfChoiceSelection(seed=0, d=len(POOL))  # candidate set = pool
    losses = {c: (10.0 if c in (POOL[0], POOL[5]) else 0.1) for c in POOL}
    chosen = sel.select(POOL, 2, 0, losses=losses)
    assert chosen == sorted([POOL[0], POOL[5]])


def test_power_of_choice_explores_unseen_first():
    sel = PowerOfChoiceSelection(seed=0, d=len(POOL))
    losses = {c: 99.0 for c in POOL if c != POOL[3]}  # POOL[3] never trained
    chosen = sel.select(POOL, 1, 0, losses=losses)
    assert chosen == [POOL[3]]


def test_power_of_choice_candidate_clamping():
    sel = PowerOfChoiceSelection(seed=0, d=10_000)
    chosen = sel.select(POOL, 3, 0, losses={})
    assert len(chosen) == 3


def test_k_larger_than_pool_is_clamped():
    for name in SELECTORS:
        sel = build_selector(name, seed=0)
        assert len(sel.select(POOL, 100, 0)) == len(POOL)


def test_registry_names():
    assert "random" in SELECTORS
    assert "round_robin" in SELECTORS
    assert "power_of_choice" in SELECTORS


def test_random_matches_legacy_engine_sampling():
    """The engine's old hard-coded sampler must survive the generalization:
    same seed, same draws (so seeded experiments reproduce across versions)."""
    sel = RandomSelection(seed=5)
    rng = np.random.default_rng((5, 0x5E1EC7))
    pool = list(range(1, 9))
    for _ in range(4):
        expected = sorted(rng.choice(pool, size=3, replace=False).tolist())
        assert sel.select(pool, 3, 0) == expected


class _IndexOnlyPool:
    """A pool that can be measured and indexed but not walked: iterating it
    (``list(pool)``, ``np.asarray(pool)`` via the sequence protocol's
    ``__iter__``) is the O(cohort) copy the samplers must not make."""

    def __init__(self, members):
        self._members = members

    def __len__(self):
        return len(self._members)

    def __getitem__(self, i):
        if not isinstance(i, int):
            raise TypeError(f"indexed with {type(i).__name__}, not a plain int")
        return self._members[i]

    def __iter__(self):
        raise AssertionError("the sampler materialised its pool")


# both sides of numpy's switch from a tail shuffle to Floyd's algorithm
@pytest.mark.parametrize("n", [8, 1992, 20_000])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("name", ["random", "power_of_choice"])
def test_index_sampling_draws_what_list_sampling_drew(name, n, k):
    """Drawing positions and mapping them through the pool gives the picks
    ``rng.choice(list(pool), …)`` gave and leaves the stream where that left
    it — the formula is written out here because the records of every seeded
    run made before depend on it."""
    members = [3 * i + 11 for i in range(n)]  # ids are not positions
    losses = {c: float((c * 7919) % 13) for c in members[::2]}  # half unseen
    sel = build_selector(name, seed=9)
    rng = np.random.default_rng((9, 0x5E1EC7))
    for _ in range(3):
        if name == "random":
            expected = sorted(rng.choice(list(members), size=k, replace=False).tolist())
        else:
            d = max(k, min(2 * k, n))
            candidates = rng.choice(list(members), size=d, replace=False).tolist()
            ranked = sorted(candidates, key=lambda c: (-losses.get(c, float("inf")), c))
            expected = sorted(ranked[:k])
        assert sel.select(_IndexOnlyPool(members), k, 0, losses=losses) == expected
        assert sel._rng.bit_generator.state == rng.bit_generator.state


def test_round_robin_still_accepts_any_sequence():
    """It ranks the whole pool by design, so it may walk it — through a view
    as well as through a list."""
    sel = RoundRobinSelection(seed=0)
    assert sel.select(tuple(POOL), 3, 0) == POOL[:3]
    assert sel.select(range(10, 22), 3, 1) == POOL[3:6]
