"""Robust aggregation rules, pluggable next to staleness-aware aggregation.

Each rule consumes a list of candidate states (or deltas) with weights and
produces one combined state.  Two call shapes cover every scheduler seam:

* :meth:`RobustAggregator.combine` — server-side: replace the weighted
  mean inside sync/semi-sync rounds, the fedasync interpolation target,
  and the fedbuff flush.
* :meth:`RobustAggregator.mix` — peer-side: replace the convex neighbor
  combination inside gossip mixing (self state + newest neighbor states).

Float entries are combined in float64 and cast back; integer entries
(step counters and the like) are carried from the base state when one is
given, else from the first candidate — the same convention as
:func:`repro.nn.serialization.state_average`, so honest-only comparisons
line up bit-for-bit where the math coincides.

Every instance keeps ``counters`` (``clipped`` / ``rejected``) that the
owning scheduler exposes through telemetry; instances are created fresh
per scheduler binding so hierarchical site tiers count independently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.serialization import is_float

__all__ = [
    "ROBUST_AGGREGATORS",
    "Krum",
    "Median",
    "NormClip",
    "RobustAggregator",
    "TrimmedMean",
    "build_robust_aggregator",
]

State = Dict[str, np.ndarray]


def _normalized(weights: Sequence[float], n: int) -> np.ndarray:
    w = np.asarray([float(x) for x in weights], dtype=np.float64)
    if len(w) != n:
        raise ValueError(f"got {len(w)} weights for {n} states")
    total = float(w.sum())
    if total <= 0:
        return np.full(n, 1.0 / n)
    return w / total


def _flatten(state: State, keys: Sequence[str]) -> np.ndarray:
    return np.concatenate(
        [np.asarray(state[k], dtype=np.float64).ravel() for k in keys]
    ) if keys else np.zeros(0)


class RobustAggregator:
    """Base: carries counters and the non-float passthrough convention."""

    name = "robust"

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {"clipped": 0, "rejected": 0}

    # ------------------------------------------------------------------
    def combine(
        self,
        states: Sequence[State],
        weights: Sequence[float],
        base: Optional[State] = None,
    ) -> State:
        if not states:
            raise ValueError(f"{self.name}: no states to combine")
        out: State = {}
        carrier = base if base is not None else states[0]
        float_keys = [k for k in states[0] if is_float(states[0][k])]
        combined = self._combine_float(states, weights, float_keys, base)
        for key in states[0]:
            if key in combined:
                out[key] = combined[key]
            else:
                src = carrier.get(key, states[0][key]) if base is not None else states[0][key]
                out[key] = np.array(src, copy=True)
        return out

    def mix(
        self,
        own_state: State,
        own_weight: float,
        entries: Sequence[Tuple[State, float]],
    ) -> State:
        """Gossip-side robust mixing: the peer's own state competes with its
        neighbors' newest states under the same rule, anchored at self."""
        states = [own_state] + [s for s, _ in entries]
        weights = [float(own_weight)] + [float(w) for _, w in entries]
        return self.combine(states, weights, base=own_state)

    # ------------------------------------------------------------------
    def _combine_float(
        self,
        states: Sequence[State],
        weights: Sequence[float],
        float_keys: Sequence[str],
        base: Optional[State],
    ) -> State:
        raise NotImplementedError


class Median(RobustAggregator):
    """Coordinate-wise median: breakdown point 1/2, weight-agnostic."""

    name = "median"

    def _combine_float(self, states, weights, float_keys, base):
        out: State = {}
        for key in float_keys:
            stack = np.stack([np.asarray(s[key], dtype=np.float64) for s in states])
            out[key] = np.median(stack, axis=0).astype(np.asarray(states[0][key]).dtype)
        return out


class TrimmedMean(RobustAggregator):
    """Coordinate-wise trimmed mean: drop the ``trim_ratio`` tails on every
    coordinate, average the rest.  Tolerates up to ``trim_ratio * n``
    corrupted inputs per coordinate."""

    name = "trimmed_mean"

    def __init__(self, trim_ratio: float = 0.2) -> None:
        super().__init__()
        if not 0 <= float(trim_ratio) < 0.5:
            raise ValueError(f"trim_ratio must be in [0, 0.5), got {trim_ratio}")
        self.trim_ratio = float(trim_ratio)

    def _combine_float(self, states, weights, float_keys, base):
        n = len(states)
        k = int(self.trim_ratio * n)
        if 2 * k >= n:
            k = max(0, (n - 1) // 2)
        self.counters["rejected"] += 2 * k
        out: State = {}
        for key in float_keys:
            first = np.asarray(states[0][key])
            if k or first.size == 1:  # sorting needs the stack; numpy sums one coordinate pairwise
                stack = np.stack([np.asarray(s[key], dtype=np.float64) for s in states])
                mean = (np.sort(stack, axis=0)[k: n - k] if k else stack).mean(axis=0)
            else:  # the stacked mean's own sum, bit for bit: rows added one by one onto +0
                mean = np.add(first, 0.0, dtype=np.float64)
                for s in states[1:]:
                    mean += s[key]
                mean /= n
            out[key] = mean.astype(first.dtype, copy=False)
        return out


class Krum(RobustAggregator):
    """Krum / multi-Krum: score each candidate by its summed squared
    distance to its ``n - f - 2`` nearest peers; keep the ``multi``
    best-scoring candidates and average them by weight.  With
    ``f < (n - 2) / 2`` the winner is guaranteed honest."""

    name = "krum"

    def __init__(self, f: Optional[int] = None, multi: int = 1) -> None:
        super().__init__()
        if f is not None and int(f) < 0:
            raise ValueError(f"krum f must be >= 0, got {f}")
        if int(multi) < 1:
            raise ValueError(f"krum multi must be >= 1, got {multi}")
        self.f = None if f is None else int(f)
        self.multi = int(multi)
        if self.multi > 1:
            self.name = "multi_krum"

    def scores(self, states: Sequence[State], float_keys: Sequence[str]) -> np.ndarray:
        n = len(states)
        vecs = np.stack([_flatten(s, float_keys) for s in states])
        sq = ((vecs[:, None, :] - vecs[None, :, :]) ** 2).sum(axis=2)
        f = self.f if self.f is not None else max(0, (n - 3) // 2)
        closest = max(1, min(n - 1, n - f - 2))
        scores = np.empty(n)
        for i in range(n):
            others = np.sort(np.delete(sq[i], i))
            scores[i] = others[:closest].sum()
        return scores

    def _combine_float(self, states, weights, float_keys, base):
        n = len(states)
        if n == 1:
            return {
                k: np.array(np.asarray(states[0][k]), copy=True) for k in float_keys
            }
        take = min(self.multi, n)
        order = np.argsort(self.scores(states, float_keys), kind="stable")[:take]
        self.counters["rejected"] += n - take
        w = _normalized([weights[i] for i in order], take)
        out: State = {}
        for key in float_keys:
            stack = np.stack(
                [np.asarray(states[i][key], dtype=np.float64) for i in order]
            )
            avg = np.tensordot(w, stack, axes=1)
            out[key] = avg.astype(np.asarray(states[0][key]).dtype)
        return out


class NormClip(RobustAggregator):
    """Norm-clipped weighted mean: clip each candidate's delta from the
    base state to an L2 ball of radius ``clip_norm``, then average.  With
    no base, candidates themselves are treated as deltas from zero."""

    name = "norm_clip"

    def __init__(self, clip_norm: float = 10.0) -> None:
        super().__init__()
        if float(clip_norm) <= 0:
            raise ValueError(f"clip_norm must be > 0, got {clip_norm}")
        self.clip_norm = float(clip_norm)

    def _combine_float(self, states, weights, float_keys, base):
        n = len(states)
        w = _normalized(weights, n)
        ref = {
            k: np.asarray(base[k], dtype=np.float64) if base is not None and k in base
            else np.zeros_like(np.asarray(states[0][k], dtype=np.float64))
            for k in float_keys
        }
        acc = {k: np.zeros_like(ref[k]) for k in float_keys}
        for i, state in enumerate(states):
            delta = {
                k: np.asarray(state[k], dtype=np.float64) - ref[k] for k in float_keys
            }
            norm = float(np.sqrt(sum(float((d * d).sum()) for d in delta.values())))
            factor = 1.0
            if norm > self.clip_norm:
                factor = self.clip_norm / norm
                self.counters["clipped"] += 1
            for k in float_keys:
                acc[k] += w[i] * factor * delta[k]
        return {
            k: (ref[k] + acc[k]).astype(np.asarray(states[0][k]).dtype)
            for k in float_keys
        }


ROBUST_AGGREGATORS = {
    "median": Median,
    "trimmed_mean": TrimmedMean,
    "krum": Krum,
    "multi_krum": Krum,
    "norm_clip": NormClip,
}


def build_robust_aggregator(name: str, **kwargs) -> RobustAggregator:
    """Instantiate a robust aggregator by registry name."""
    key = str(name)
    if key not in ROBUST_AGGREGATORS:
        raise ValueError(
            f"unknown robust aggregator {key!r}; known: {sorted(ROBUST_AGGREGATORS)}"
        )
    if key == "multi_krum":
        kwargs.setdefault("multi", 3)
    return ROBUST_AGGREGATORS[key](**kwargs)
