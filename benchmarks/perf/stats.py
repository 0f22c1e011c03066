"""Timing-free arithmetic: percentiles, probe normalisation, run-set spread
and the two-set comparator.  Everything here is pure so ``test_harness.py``
can pin it without running a workload."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    order statistics — numpy's default, spelled out so the supervisor
    process never has to import numpy."""
    if not values:
        raise ValueError("percentile of an empty sample")
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def p10(values: Sequence[float]) -> float:
    """A workload's lap statistic.  Low enough to shed drift and stalls,
    high enough not to be set by one fluke-fast lap (the minimum is)."""
    return percentile(values, 10.0)


def normalise(value: float, probe_before: float, probe_after: float, ref: float) -> float:
    """Scale a measured time to reference machine speed.

    The faster of the two probes bracketing the measurement stands for the
    machine's speed during it: a probe can be slowed by a stall that missed
    the lap, never sped up."""
    probe = min(probe_before, probe_after)
    if probe <= 0:
        raise ValueError("probe time must be positive")
    return value * ref / probe


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's own
    steadiness test (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the value ``second`` is worse (negative:
    better)."""
    if better == "higher":
        return (first - second) / first
    return (second - first) / first


def compare_sets(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Dict[str, float]:
    """Two sets of runs of the same code: medians, quartiles, the gap between
    the medians in either direction, and whether it stays within ``bound``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    gap = abs(worsening(med_a, med_b, better))
    out = {"median_a": med_a, "median_b": med_b, "gap": gap, "bound": bound,
           "ok": gap <= bound}
    for tag, vals in (("a", a), ("b", b)):
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        out[f"q1_{tag}"], out[f"q3_{tag}"] = q1, q3
    return out


def summarise_laps(walls: List[float], cpus: List[float], probes: List[float], ref: float) -> Dict[str, float]:
    """Fold one phase of laps into its lap statistics.

    ``probes`` has one more entry than ``walls``: probe ``i`` ran before lap
    ``i`` and probe ``i + 1`` after it."""
    if len(probes) != len(walls) + 1 or len(cpus) != len(walls):
        raise ValueError("need one probe before the first lap and one after every lap")
    norm_wall = [normalise(w, probes[i], probes[i + 1], ref) for i, w in enumerate(walls)]
    norm_cpu = [normalise(c, probes[i], probes[i + 1], ref) for i, c in enumerate(cpus)]
    return {
        "laps": len(walls),
        "lap_s": p10(norm_wall),
        "lap_cpu_s": p10(norm_cpu),
        "raw_lap_s": p10(walls),
        "raw_lap_median_s": statistics.median(walls),
        "raw_lap_cpu_s": p10(cpus),
        "probe_median_s": statistics.median(probes),
        "probe_min_s": min(probes),
    }
