"""Concrete execution policies: sync barrier, semi-sync deadline, FedAsync,
FedBuff.

All four share the virtual-time runtime of :class:`~repro.scheduler.base.
Scheduler`; they differ only in *when* arrivals enter the global model:

``sync``       barrier per round — aggregate once everyone arrived (the
               engine's classic semantics, re-expressed as a policy so the
               three modes compare under one latency model);
``semi_sync``  aggregate whatever arrived by a deadline; stragglers carry
               over and are merged late with a staleness discount;
``fedasync``   merge every arrival immediately, weighted by
               ``alpha · s(staleness)`` (Xie et al. 2019);
``fedbuff``    buffer staleness-discounted deltas and flush every ``K``
               arrivals (Nguyen et al. 2022).

Each merge rule is written once, as a module-level function that handles
both the plain and the robust case — :func:`merge_barrier`,
:func:`merge_interpolate` and :func:`merge_buffered` — and is used at every
tier: the flat policies here call them, and so does the hierarchical root
(:mod:`repro.scheduler.hierarchical`) for its ``sync``, ``fedasync`` and
``fedbuff`` outer merges.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.nn.serialization import clone_state, is_float
from repro.scheduler.base import SCHEDULERS, Scheduler
from repro.scheduler.events import PendingUpdate
from repro.utils.logging import get_logger

__all__ = [
    "SyncScheduler",
    "SemiSyncScheduler",
    "FedAsyncScheduler",
    "FedBuffScheduler",
]

_LOG = get_logger("scheduler")


def _interpolate(
    global_state: Dict[str, np.ndarray],
    client_state: Dict[str, np.ndarray],
    weight: float,
) -> Dict[str, np.ndarray]:
    """``(1 - w)·global + w·client`` on float entries; integer buffers (e.g.
    BatchNorm step counts) adopt the client's value."""
    out: Dict[str, np.ndarray] = {}
    for key, g in global_state.items():
        c = client_state.get(key)
        if c is None:
            out[key] = np.copy(g)
        elif np.asarray(g).dtype.kind == "f":
            mixed = (1.0 - weight) * g
            mixed += weight * np.asarray(c)
            # a policy passing np.float64 weights must not widen the state
            out[key] = mixed.astype(g.dtype, copy=False)
        else:
            out[key] = np.copy(c)
    return out


def _float_delta(
    state: Dict[str, np.ndarray], base: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """``state − base`` on float entries (what delta-buffering policies
    accumulate); integer buffers are skipped."""
    delta: Dict[str, np.ndarray] = {}
    for key, c in state.items():
        b = base.get(key)
        if b is not None and is_float(b):
            delta[key] = np.asarray(c) - b
    return delta


def merge_barrier(sched: Scheduler, entries: List[Dict[str, Any]]) -> None:
    """The barrier merge (``sync``/``semi_sync`` rounds, ``sync`` outer tier):
    the algorithm's own ``aggregate`` over ``entries``, or — with a robust
    rule bound — that rule over the entries' states, weighted by each
    entry's effective ``num_samples`` (where a staleness discount enters)."""
    if sched.robust is not None:
        sched.global_state = sched.robust.combine(
            [e["state"] for e in entries],
            [float(e["meta"].get("num_samples", 1.0)) for e in entries],
            base=sched.global_state,
        )
    else:
        sched.global_state = sched.server.algorithm.aggregate(
            entries, sched.global_state, sched.version
        )
    sched.version += 1


def merge_interpolate(
    sched: Scheduler,
    window: List[Dict[str, np.ndarray]],
    cap: int,
    state: Dict[str, np.ndarray],
    weight: float,
) -> None:
    """The FedAsync merge: ``x ← (1 − w)·x + w·state``.

    With a robust rule bound, ``state`` joins ``window`` (the last ``cap``
    arrivals) and the target becomes the window's robust combination — one
    poisoned state then moves the model only as far as the rule lets it.
    """
    target = state
    if sched.robust is not None:
        window.append(state)
        del window[:-cap]
        target = sched.robust.combine(list(window), [1.0] * len(window), base=sched.global_state)
    sched.global_state = _interpolate(sched.global_state, target, weight)
    sched.version += 1


def merge_buffered(sched: Scheduler, buffer: List[Dict[str, Any]], server_lr: float) -> None:
    """One FedBuff flush of ``buffer`` items (``delta``, discount ``weight``).

    Plain: the mean of the discounted deltas, scaled by ``server_lr``.
    Dividing by the buffer count (not the weight sum) keeps the staleness
    discount absolute — a buffer of uniformly stale updates steps
    proportionally smaller, instead of the discount cancelling out of the
    normalization.  Robust: the rule combines the discounted deltas
    (median/trimmed mean/Krum screen out poisoned steps, norm-clip bounds
    them at zero base), then one ``server_lr`` step applies the result.
    """
    if sched.robust is not None:
        weighted = [
            {key: item["weight"] * d for key, d in item["delta"].items()} for item in buffer
        ]
        combined = sched.robust.combine(weighted, [1.0] * len(weighted), base=None)
        steps = [(server_lr, combined)]
    else:
        steps = [(server_lr * item["weight"] / len(buffer), item["delta"]) for item in buffer]
    new_state = clone_state(sched.global_state)
    for scale, delta in steps:
        for key, d in delta.items():
            if key in new_state:
                new_state[key] = (new_state[key] + scale * d).astype(new_state[key].dtype)
    sched.global_state = new_state
    sched.version += 1


# ----------------------------------------------------------------------
# round-based policies
# ----------------------------------------------------------------------
@SCHEDULERS.register("semi_sync", "deadline", "semisync")
class SemiSyncScheduler(Scheduler):
    """Deadline-based semi-synchronous rounds.

    Each round dispatches up to ``clients_per_round`` idle clients, then
    closes at ``now + deadline`` virtual seconds: arrivals inside the window
    aggregate via the algorithm's own ``aggregate`` hook (so FedProx,
    Scaffold, ... all work).  Updates still in flight at the deadline remain
    queued — stale carryover — and merge in the round they finally arrive.

    The staleness discount enters through each entry's effective sample
    weight (``meta['num_samples'] *= s(τ)``), which the FedAvg-family
    weighted aggregators honor.  Algorithms that average *unweighted*
    (e.g. Scaffold's variate average) ignore sample weights and therefore
    merge stale carryover at full strength; the raw ``meta['staleness']``
    rides along for aggregators that want to handle it themselves.
    """

    name = "semi_sync"
    uses_algorithm_aggregate = True

    def __init__(
        self,
        deadline: float = 1.0,
        clients_per_round: Optional[int] = None,
        min_updates: int = 1,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        if deadline <= 0 and not math.isinf(deadline):
            raise ValueError("deadline must be > 0 (or inf for a full barrier)")
        if clients_per_round is not None and clients_per_round < 1:
            raise ValueError("clients_per_round must be >= 1 (or None for the default)")
        self.deadline = float(deadline)
        self.clients_per_round = clients_per_round
        self.min_updates = max(1, int(min_updates))

    # -- round mechanics ------------------------------------------------
    def _round_window(self) -> float:
        """Virtual time at which this round closes."""
        if math.isinf(self.deadline):
            # full barrier: everyone dispatched must arrive
            last = max((e.arrival for e in self.queue), default=self.now)
            return last
        return self.now + self.deadline

    def _execute(self, total_updates: Optional[int]) -> None:
        target = self._start(total_updates)
        while self.applied < target:
            k = self.clients_per_round
            if k is None:
                k = self.concurrency if self.concurrency else len(self.clients)
            for client in self.select_idle(k):
                self.dispatch(client)
            if not self.queue:
                # nothing dispatched and nothing carried over: no arrival can
                # ever close this round — fail loudly instead of spinning
                raise RuntimeError(
                    "semi-sync round has no updates in flight (empty selection "
                    "with an empty carry-over queue)"
                )
            window = self._round_window()
            arrivals = self.queue.pop_until(window)
            while (
                sum(1 for e in arrivals if not e.dropped) < self.min_updates
                and self.queue
            ):
                # too few usable updates landed inside the window (dropped
                # arrivals carry nothing): extend to the next arrival so
                # every aggregation merges at least ``min_updates`` updates
                # and progress is guaranteed
                head = self.queue.peek()
                assert head is not None
                window = head.arrival
                arrivals.extend(self.queue.pop_until(window))
            self.now = max(self.now, window)
            merged, staleness = self._aggregate_round(arrivals)
            if merged:
                self.applied += len(merged)
                self.record_aggregation(merged, staleness)

    def _aggregate_round(self, arrivals: List[PendingUpdate]):
        entries: List[Dict[str, Any]] = []
        merged: List[Dict[str, Any]] = []
        staleness: List[int] = []
        assert self.discount is not None
        for event in arrivals:
            result = self.retire(event)
            if event.dropped:
                continue
            tau = self.staleness_of(event)
            weight = self.discount(tau)
            meta = dict(result.get("meta", {}))
            meta["num_samples"] = float(meta.get("num_samples", 1)) * weight
            meta["staleness"] = tau
            entries.append({"rank": event.client, "state": result["state"], "meta": meta})
            merged.append(result)
            staleness.append(tau)
        if entries:
            with self.tracer.span("sched.aggregate", cat="sched", sim_time=self.now,
                                  policy=self.name, merged=len(entries)):
                merge_barrier(self, entries)
        return merged, staleness


@SCHEDULERS.register("sync", "bsp", "barrier")
class SyncScheduler(SemiSyncScheduler):
    """Full barrier per round: the engine's classic semantics expressed as a
    policy, so sync/semi-sync/async compare under one straggler model.
    Every round waits for the slowest dispatched client (deadline = ∞)."""

    name = "sync"

    def __init__(self, clients_per_round: Optional[int] = None, **kwargs: Any) -> None:
        kwargs.pop("deadline", None)
        super().__init__(deadline=math.inf, clients_per_round=clients_per_round, **kwargs)


# ----------------------------------------------------------------------
# continuous (event-driven) policies
# ----------------------------------------------------------------------
class _ContinuousScheduler(Scheduler):
    """Shared loop for event-driven policies: keep ``concurrency`` updates in
    flight, retire the earliest arrival, hand it to :meth:`ingest`, refill."""

    def _execute(self, total_updates: Optional[int]) -> None:
        target = self._start(total_updates)
        for client in self.select_idle(self.concurrency or 1):
            self.dispatch(client)
        while self.applied < target:
            if not self.queue:
                for client in self.select_idle(self.concurrency or 1):
                    self.dispatch(client)
                if not self.queue:
                    raise RuntimeError("async scheduler has no dispatchable clients")
            event = self.queue.pop()
            result = self.retire(event)
            if not event.dropped:
                self.ingest(event, result)
            for client in self.select_idle(1):
                self.dispatch(client)
        self.flush()

    def ingest(self, event: PendingUpdate, result: Dict[str, Any]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Drain any buffered state at the end of a run (no-op by default)."""


@SCHEDULERS.register("fedasync", "async")
class FedAsyncScheduler(_ContinuousScheduler):
    """FedAsync: every arrival is merged immediately as
    ``x ← (1 − α_τ)·x + α_τ·x_client`` with ``α_τ = alpha · s(staleness)``.

    Interpolates raw model states, so it requires a full-state-uploading
    algorithm (the FedAvg family).
    """

    name = "fedasync"
    requires_full_state = True

    def __init__(self, alpha: float = 0.6, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        if not (0.0 < alpha <= 1.0):
            raise ValueError("fedasync alpha must be in (0, 1]")
        self.alpha = float(alpha)
        # recent arrivals, combined by the robust rule (merge_interpolate)
        self._robust_window: List[Dict[str, np.ndarray]] = []

    def ingest(self, event: PendingUpdate, result: Dict[str, Any]) -> None:
        assert self.discount is not None
        tau = self.staleness_of(event)
        with self.tracer.span("sched.aggregate", cat="sched", sim_time=self.now,
                              policy=self.name, client=event.client, staleness=tau):
            merge_interpolate(self, self._robust_window, max(3, int(self.concurrency or 1)),
                              result["state"], self.alpha * self.discount(tau))
        self.applied += 1
        self.record_aggregation([result], [tau])


@SCHEDULERS.register("fedbuff", "buffered")
class FedBuffScheduler(_ContinuousScheduler):
    """FedBuff: buffer staleness-discounted client *deltas* (client state −
    the global state it trained from) and apply their weighted mean every
    ``buffer_size`` arrivals, scaled by ``server_lr``.

    Like FedAsync this differences raw model states, so it requires a
    full-state-uploading algorithm.
    """

    name = "fedbuff"
    requires_full_state = True
    needs_base_state = True

    def __init__(self, buffer_size: int = 4, server_lr: float = 1.0, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.buffer_size = int(buffer_size)
        self.server_lr = float(server_lr)
        self._buffer: List[Dict[str, Any]] = []
        self.flush_count = 0

    def ingest(self, event: PendingUpdate, result: Dict[str, Any]) -> None:
        assert self.discount is not None and event.base_state is not None
        tau = self.staleness_of(event)
        weight = self.discount(tau)
        delta = _float_delta(result["state"], event.base_state)
        self._buffer.append(
            {"delta": delta, "weight": weight, "staleness": tau, "result": result}
        )
        if len(self._buffer) >= self.buffer_size:
            self._flush_buffer()

    def _flush_buffer(self) -> None:
        if not self._buffer:
            return
        # detach the buffer before touching state: record_aggregation may
        # raise StopRun (callback-requested stop), and already-applied
        # deltas must never survive to be re-applied by the next flush
        buffer, self._buffer = self._buffer, []
        with self.tracer.span("sched.aggregate", cat="sched", sim_time=self.now,
                              policy=self.name, merged=len(buffer)):
            merge_buffered(self, buffer, self.server_lr)
        self.applied += len(buffer)
        self.flush_count += 1
        self.record_aggregation(
            [item["result"] for item in buffer],
            [item["staleness"] for item in buffer],
        )

    def flush(self) -> None:
        # leftover partial buffer at the end of a run still carries signal
        self._flush_buffer()
