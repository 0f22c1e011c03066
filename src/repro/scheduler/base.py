"""Scheduler base: the execution-policy layer of the framework.

A :class:`Scheduler` decides *when* client updates enter the global model —
the axis the synchronous engine hard-codes as one barrier per round.  It owns

* a :class:`~repro.scheduler.selection.SelectionStrategy` (who trains),
* a staleness discount (how much late updates count),
* a :class:`~repro.scheduler.heterogeneity.HeterogeneityModel` (how long
  each client takes, who drops out), and
* an :class:`~repro.scheduler.events.EventQueue` of in-flight updates over
  the engine's thread-actor futures.

Training is real (each dispatch runs ``Node.local_update`` on the client's
actor thread, on this thread in a ``memory://`` pool, or in a broker's worker
process); *time* is virtual: the heterogeneity model stamps every
dispatch with an arrival time and policies advance ``self.now`` instead of
sleeping, so straggler dynamics are reproducible and fast.  Concrete
policies (sync barrier, semi-sync deadline, FedAsync, FedBuff) live in
:mod:`repro.scheduler.policies`.
"""

from __future__ import annotations

import copy
import time
import weakref
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from typing import Any, Dict, Iterator, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.runtime.broker import BrokerTurnLost
from repro.scheduler.events import EventQueue, PendingUpdate
from repro.scheduler.heterogeneity import HeterogeneityModel
from repro.scheduler.selection import SelectionStrategy, build_selector
from repro.scheduler.staleness import StalenessFn, build_staleness
from repro.telemetry.tracer import NOOP_TRACER
from repro.topology.base import NodeRole
from repro.utils.logging import get_logger
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import Engine
    from repro.engine.metrics import MetricsCollector, RoundRecord
    from repro.node.node import Node

__all__ = ["Scheduler", "SCHEDULERS", "build_scheduler"]

_LOG = get_logger("scheduler")

SCHEDULERS: Registry["Scheduler"] = Registry("scheduler")

#: actor-future timeout for one local training call (real seconds)
_TRAIN_TIMEOUT = 600.0


class _IdleView(SequenceABC):
    """``clients`` minus the ones at the ``busy`` positions, in ``clients``
    order, without copying: what selection samples from on every dispatch.

    Selection indexes into its pool, so the order is part of the contract.
    The i-th idle client sits ``j`` places further along, ``j`` being how many
    busy positions precede it — found by bisecting ``busy[j] - j`` (the count
    of idle clients before the j-th busy one, which never decreases).
    """

    __slots__ = ("_clients", "_busy", "_idle_before")

    def __init__(self, clients: Sequence[int], busy: List[int]) -> None:
        self._clients = clients
        self._busy = busy  # ascending positions into ``clients``
        self._idle_before = [pos - j for j, pos in enumerate(busy)]

    def __len__(self) -> int:
        return len(self._clients) - len(self._busy)

    def __getitem__(self, i: int) -> int:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("idle client index out of range")
        return self._clients[i + bisect_right(self._idle_before, i)]

    def __iter__(self) -> Iterator[int]:
        start = 0
        for pos in self._busy:
            yield from self._clients[start:pos]
            start = pos + 1
        yield from self._clients[start:]


class Scheduler:
    """Execution policy driving an engine's federation without a global barrier.

    Subclasses implement :meth:`run`; the base class provides dispatch,
    event-queue bookkeeping, staleness accounting, metric records, and
    evaluation cadence.  A scheduler is constructed standalone (so YAML
    configs can instantiate it) and attached with :meth:`bind` before use.
    """

    name = "base"

    def __init__(
        self,
        *,
        concurrency: Optional[int] = None,
        selection: Optional[str] = None,
        selection_kwargs: Optional[Dict[str, Any]] = None,
        staleness: Any = "polynomial",
        staleness_kwargs: Optional[Dict[str, Any]] = None,
        heterogeneity: Optional[Any] = None,
        seed: Optional[int] = None,
        # evaluate every N *applied updates* (None: the engine's per-round
        # eval_every, scaled by the trainer count so all policies evaluate
        # comparably often; 0: never)
        eval_every: Optional[int] = None,
    ) -> None:
        self.concurrency = concurrency
        self._selection = selection
        self._selection_kwargs = dict(selection_kwargs or {})
        self._staleness_spec = staleness
        self._staleness_kwargs = dict(staleness_kwargs or {})
        self._hetero_cfg = heterogeneity
        self.seed = seed
        self.eval_every = eval_every

        # runtime state, populated by bind()/run()
        self.engine: Optional["Engine"] = None
        self.runtime: Optional[Any] = None  # ClientRuntime: id -> actor/pool
        self.metrics: Optional["MetricsCollector"] = None
        self.tier = "global"  # "site" when bound as a nested per-site policy
        self.selector: Optional[SelectionStrategy] = None
        self.discount: Optional[StalenessFn] = None
        self.hetero: Optional[HeterogeneityModel] = None
        self.clients: List[int] = []
        self.queue = EventQueue()
        self.now = 0.0  # virtual seconds
        self.version = 0  # global model version (== number of aggregations)
        self.applied = 0  # client updates merged into the global model
        self.dropped = 0  # dispatches lost to the fault model
        self.last_loss: Dict[int, float] = {}
        self._in_flight: Dict[int, PendingUpdate] = {}
        self._dispatch_count: Dict[int, int] = {}
        self._server_idx: Optional[int] = None
        self._node_pos: Dict[int, int] = {}
        self._client_pos: Dict[int, int] = {}  # client id -> index in clients
        self._wall_anchor = 0.0
        # adversarial robustness (bound from the engine): the robust
        # aggregator instance for this tier (None: plain staleness-weighted
        # aggregation), the attacker id set for arrival counting, and the
        # count of byzantine updates that reached this scheduler
        self.robust: Optional[Any] = None
        self._attacker_ids: frozenset = frozenset()
        self.attacked = 0
        self._eval_updates = 0  # evaluate every N applied updates (0 = never)
        self._next_eval = 0
        # (version, global_state, payload): server_payload built once per
        # model version instead of once per dispatch.  Consumers treat
        # payloads as immutable, and the stable payload *object* per version
        # is what downstream caches key on (turn fusion batches same-payload
        # turns; the redis broker interns one wire copy per version)
        self._payload_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    #: policies that merge raw client states without the algorithm's
    #: ``aggregate`` hook require full-state uploads (FedAvg family)
    requires_full_state = False
    #: delta-buffering policies diff arrivals against the global state they
    #: were dispatched from; others skip pinning it so superseded states
    #: are freed as soon as the next aggregation replaces them
    needs_base_state = False

    #: barrier policies merge through the algorithm's ``aggregate`` hook,
    #: which a robust rule would replace: bind refuses a custom hook then
    uses_algorithm_aggregate = False

    #: server-driven policies resolve an aggregator node at bind time;
    #: decentralized (gossip) policies have no server and skip that step
    requires_aggregator = True

    #: topology coordination patterns this scheduler can drive when bound as
    #: the engine's top-level execution policy (scoped site-tier bindings
    #: skip the check — the coordinator vouches for them)
    patterns = ("server",)

    def bind(
        self,
        engine: "Engine",
        *,
        clients: Optional[Sequence[int]] = None,
        server_idx: Optional[int] = None,
        metrics: Optional["MetricsCollector"] = None,
    ) -> "Scheduler":
        """Attach to an engine: resolve server, client pool, and models.

        Without keyword arguments this is a *flat* binding — the scheduler
        drives the whole federation against the engine's single aggregator.
        A hierarchical coordinator instead binds one policy per site with
        ``clients`` (that site's trainer indices), ``server_idx`` (the site
        head's position in ``engine.nodes``), and a private ``metrics``
        collector, turning any flat policy into that site's intra-site
        execution policy.
        """
        scoped = clients is not None or server_idx is not None
        if not scoped and engine.topology.pattern not in self.patterns:
            need = "/".join(self.patterns)
            if "hierarchical" in self.patterns:
                hint = (
                    "flat topologies use the flat policies "
                    "(sync, semi_sync, fedasync, fedbuff)"
                )
            elif "gossip" in self.patterns:
                hint = (
                    "gossip policies need a decentralized topology "
                    "(ring, p2p, or custom)"
                )
            else:
                hint = (
                    "use scheduler=hier_async (with scheduler.inner=... per site) "
                    "for hierarchical federations and scheduler=gossip_async for "
                    "decentralized (ring/p2p/custom) ones"
                )
            raise ValueError(
                f"scheduler {self.name!r} needs a {need}-pattern topology "
                f"(got {engine.topology.pattern!r}); {hint}"
            )
        self.engine = engine
        self.metrics = metrics if metrics is not None else engine.metrics
        self.tier = "site" if scoped else "global"
        seed = int(self.seed if self.seed is not None else engine.seed)
        if self._selection is None:
            # no scheduler-level override: honor the engine's configured
            # strategy (so `selection=power_of_choice scheduler=fedasync`
            # behaves the same with and without a scheduler); site-tier
            # bindings get their own copy so per-site selection state
            # (round-robin cursors, rng streams) stays independent
            self.selector = copy.deepcopy(engine.selector) if scoped else engine.selector
        else:
            self.selector = build_selector(self._selection, seed=seed, **self._selection_kwargs)
        self.discount = build_staleness(self._staleness_spec, **self._staleness_kwargs)
        self.hetero = HeterogeneityModel.from_config(self._hetero_cfg, seed=seed)
        if clients is not None:
            # scoped binding: the coordinator addresses engine nodes directly
            self.clients = [int(c) for c in clients]
            self.runtime = engine.node_runtime(self.clients)
        else:
            # flat binding: logical client ids (data-shard indices), served
            # by the engine's client runtime — a dedicated actor per client,
            # or the shared worker pool in pooled execution.  Either way the
            # ids (and so every selection/heterogeneity stream keyed on
            # them) are identical, which is what makes pooled runs
            # bit-reproduce dedicated ones.
            self.runtime = engine.client_runtime()
            self.clients = list(self.runtime.client_ids())
        self._client_pos = {c: i for i, c in enumerate(self.clients)}
        if len(self._client_pos) != len(self.clients):
            raise ValueError(f"scheduler {self.name!r} was bound to duplicate client ids")
        if server_idx is not None:
            self._server_idx = int(server_idx)
            if self._server_idx < 0 or self._server_idx >= len(engine.nodes):
                raise ValueError(
                    f"server_idx {self._server_idx} is out of range for this "
                    f"engine ({len(engine.nodes)} nodes on a "
                    f"{engine.topology.pattern!r}-pattern topology)"
                )
            node = engine.nodes[self._server_idx]
            if not node.role.aggregates():
                raise ValueError(
                    f"node {self._server_idx} ({node.name!r}) cannot serve a "
                    f"site tier for scheduler {self.name!r}: its role "
                    f"{node.role.value!r} does not aggregate on this "
                    f"{engine.topology.pattern!r}-pattern topology — bind "
                    "server_idx to an aggregator or relay (site-head) node"
                )
        elif self.requires_aggregator:
            try:
                self._server_idx = next(
                    i for i, n in enumerate(engine.nodes) if n.role is NodeRole.AGGREGATOR
                )
            except StopIteration:
                raise ValueError("scheduler needs a topology with an aggregator node") from None
        if self.requires_full_state and self._server_idx is not None:
            algo = engine.nodes[self._server_idx].algorithm
            if not algo.uploads_full_state:
                raise ValueError(
                    f"scheduler {self.name!r} interpolates raw model states and "
                    f"needs a full-state-uploading algorithm; {algo.name!r} "
                    "uploads deltas/variates — use semi_sync or sync instead"
                )
        plan = getattr(engine, "attack_plan", None)
        self._attacker_ids = frozenset(plan.attacker_ids) if plan is not None else frozenset()
        robust_factory = getattr(engine, "robust_factory", None)
        self.robust = robust_factory() if robust_factory is not None else None
        if self.robust is not None and self._server_idx is not None:
            from repro.algorithms.base import Algorithm

            algo = engine.nodes[self._server_idx].algorithm
            if not algo.uploads_full_state:
                raise ValueError(
                    f"robust aggregation ({self.robust.name!r}) operates on raw "
                    f"model states; algorithm {algo.name!r} uploads deltas/"
                    "control variates — use a full-state algorithm (the "
                    "fedavg family) or drop aggregation.robust"
                )
            if self.uses_algorithm_aggregate and type(algo).aggregate is not Algorithm.aggregate:
                # never silently ignore a robustness request: a custom
                # aggregate() and a robust rule cannot both own the merge
                raise ValueError(
                    f"robust aggregator {self.robust.name!r} would replace "
                    f"{algo.name!r}'s custom aggregate(); pick a plain "
                    "weighted-mean algorithm or drop aggregation.robust"
                )
        self._node_pos = {
            n.spec.index: i for i, n in enumerate(engine.nodes) if n.role.trains()
        }
        if self._attacker_ids and clients is not None:
            # scoped (site-tier) bindings address engine node indices, not
            # logical client ids; translate the attacker set through each
            # node's pinned data shard so arrival counting stays correct
            self._attacker_ids = frozenset(
                c for c in self.clients
                if engine.nodes[self._node_pos[c]].client_id in self._attacker_ids
            )
        if self.concurrency is None:
            # honor the engine's partial-participation knob: at most
            # client_fraction of the pool is in flight (round policies also
            # use this as their per-round dispatch count)
            self.concurrency = max(1, int(round(engine.client_fraction * len(self.clients))))
        self.concurrency = max(1, min(int(self.concurrency), len(self.clients)))
        # evaluation cadence is counted in *applied updates* so policies with
        # different aggregation granularity (1 for FedAsync, K for FedBuff,
        # a round's worth for sync) evaluate comparably often; the engine's
        # per-round eval_every maps to one round's worth of updates —
        # ``concurrency``, which already reflects partial participation
        if self.eval_every is None:
            self._eval_updates = int(engine.eval_every) * self.concurrency
        else:
            self._eval_updates = int(self.eval_every)
        return self

    # ------------------------------------------------------------------
    # shared runtime machinery
    # ------------------------------------------------------------------
    @property
    def engine(self) -> Optional["Engine"]:
        """The engine this policy is bound to (``None`` before ``bind``),
        held weakly: the engine keeps its scheduler, and a pointer back
        would make every engine a reference cycle — its models, snapshots
        and datasets freed whenever the cycle collector next runs, not when
        the engine is dropped."""
        ref = self._engine
        return ref() if ref is not None else None

    @engine.setter
    def engine(self, engine: Optional["Engine"]) -> None:
        self._engine = weakref.ref(engine) if engine is not None else None

    @property
    def tracer(self):
        """The engine's tracer, read per call: ``bind`` happens before the
        setup callbacks fire, so a tracer captured at bind time would still
        be the no-op default even when Telemetry later installs a real one."""
        engine = self.engine
        return engine.tracer if engine is not None else NOOP_TRACER

    @property
    def server(self) -> "Node":
        assert self.engine is not None and self._server_idx is not None
        return self.engine.nodes[self._server_idx]

    @property
    def global_state(self) -> Dict[str, np.ndarray]:
        state = self.server.global_state
        assert state is not None, "scheduler used before engine async setup"
        return state

    @global_state.setter
    def global_state(self, state: Dict[str, np.ndarray]) -> None:
        self.server.global_state = state

    def idle_clients(self) -> Sequence[int]:
        """Clients with nothing in flight, in ``self.clients`` order."""
        # per-dispatch cost follows the window, not the cohort
        pos = self._client_pos
        return _IdleView(self.clients, sorted(pos[c] for c in self._in_flight if c in pos))

    def select_idle(self, k: int) -> List[int]:
        """Pick up to ``k`` idle clients via the selection strategy."""
        idle = self.idle_clients()
        if not idle or k <= 0:
            return []
        assert self.selector is not None
        return self.selector.select(idle, min(k, len(idle)), self.version, losses=self.last_loss)

    def dispatch(self, client: int) -> PendingUpdate:
        """Send the current global model to ``client`` and start local training."""
        assert self.engine is not None and self.hetero is not None
        if client in self._in_flight:
            raise RuntimeError(f"client {client} already has an update in flight")
        count = self._dispatch_count.get(client, 0)
        self._dispatch_count[client] = count + 1
        latency, dropped = self.hetero.sample(client, count)
        if dropped:
            # a dropped client crashed or lost connectivity: no training
            # happens and nothing reaches the server (matching the sync
            # engine's drop model, and keeping stateful client algorithms
            # from silently diverging from what the server saw); the event
            # still occupies the client until the server would notice
            future = None
        else:
            cache = self._payload_cache
            if cache is not None and cache[0] == self.version and cache[1] is self.global_state:
                payload = cache[2]
            else:
                payload = self.server.algorithm.server_payload(self.global_state)
                self._payload_cache = (self.version, self.global_state, payload)
            assert self.runtime is not None
            future = self.runtime.submit(
                client, "local_update", payload, self.version, self.version
            )
        event = PendingUpdate(
            arrival=self.now + latency,
            seq=self.queue.next_seq(),
            client=client,
            version=self.version,
            dispatched_at=self.now,
            dropped=dropped,
            future=future,
            # aggregations replace (never mutate) the state dict, so a
            # reference suffices where the policy needs the dispatch base
            base_state=self.global_state if self.needs_base_state else None,
        )
        self.queue.push(event)
        self._in_flight[client] = event
        return event

    def retire(self, event: PendingUpdate) -> Dict[str, Any]:
        """Block on an event's future, advance virtual time, free the client."""
        self.now = max(self.now, event.arrival)
        self._in_flight.pop(event.client, None)
        tracer = self.tracer
        if tracer.enabled:
            tracer.sim_span(
                "client.turn", event.dispatched_at, event.arrival, cat="sched",
                track=f"client {event.client}", client=event.client,
                version=event.version, dropped=event.dropped,
            )
        if event.dropped:
            # nothing ever arrived: no stats, no loss signal for selection
            self.dropped += 1
            return {}
        try:
            result = event.result(_TRAIN_TIMEOUT)
        except BrokerTurnLost as exc:
            # a broker-backed runtime lost the turn (dead worker, retries
            # exhausted): fail the run with the dispatch pinned, instead of
            # stalling until _TRAIN_TIMEOUT with the window full
            raise BrokerTurnLost(
                f"dispatch for client {event.client} (version "
                f"{event.version}) failed at the broker: {exc}"
            ) from exc
        stats = result.get("stats", {})
        if "loss" in stats:
            self.last_loss[event.client] = float(stats["loss"])
        if event.client in self._attacker_ids:
            # a byzantine update actually reached this tier (dropped and
            # lost dispatches return earlier and never count)
            self.attacked += 1
        return result

    def staleness_of(self, event: PendingUpdate) -> int:
        return max(0, self.version - event.version)

    def robust_counters(self) -> Dict[str, int]:
        """Attack/defense counters for telemetry: byzantine updates that
        arrived, plus the robust aggregator's clip/reject totals.
        Hierarchical coordinators override this to fold in their site tiers.
        """
        out = {"attacked": int(self.attacked), "clipped": 0, "rejected": 0}
        if self.robust is not None:
            out["clipped"] = int(self.robust.counters.get("clipped", 0))
            out["rejected"] = int(self.robust.counters.get("rejected", 0))
        return out

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def record_aggregation(
        self,
        merged: Sequence[Dict[str, Any]],
        staleness: Sequence[int],
        applied: Optional[int] = None,
    ) -> "RoundRecord":
        """Append one metrics record for an aggregation event.

        The only place a scheduler builds a record.  ``applied`` defaults to
        one client update per ``merged`` result; the policy's
        :meth:`_annotate` hook fills its own fields before
        ``metrics.add``, so every callback sees the record complete.
        """
        # imported lazily: repro.engine.engine imports this module, and the
        # engine package __init__ pulls engine.py in — a top-level import
        # here would close that cycle before Scheduler exists
        from repro.engine.metrics import RoundRecord

        assert self.engine is not None and self.metrics is not None
        wall = time.perf_counter() - self._wall_anchor
        record = RoundRecord(
            round_idx=len(self.metrics.history),
            wall_seconds=wall,
            sim_time=self.now,
            applied=len(merged) if applied is None else applied,
            # integer version gaps: the exact sum divided once is np.mean's
            # float64 result, without building an array for one element
            staleness_mean=sum(staleness) / len(staleness) if len(staleness) else 0.0,
            tier=self.tier,
        )
        losses, accs, weights = [], [], []
        for res in merged:
            stats = res.get("stats", {})
            if "loss" in stats:
                w = float(stats.get("samples", 1.0))
                losses.append(float(stats["loss"]) * w)
                accs.append(float(stats.get("accuracy", 0.0)) * w)
                weights.append(w)
        total_w = sum(weights)
        if total_w > 0:
            record.train_loss = sum(losses) / total_w
            record.train_accuracy = sum(accs) / total_w
        if self._eval_updates and self.applied >= self._next_eval:
            record.eval_loss, record.eval_accuracy = self.engine.evaluate()
            while self._next_eval <= self.applied:
                self._next_eval += self._eval_updates
        # re-anchor after evaluation so its cost is charged to no record —
        # mirroring the sync engine, whose round timer also excludes eval
        self._wall_anchor = time.perf_counter()
        self._annotate(record, merged)
        self.metrics.add(record)
        return record

    def _annotate(self, record: "RoundRecord", merged: Sequence[Dict[str, Any]]) -> None:
        """Policy-specific record fields (none by default)."""

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self, total_updates: Optional[int] = None) -> "MetricsCollector":
        """Drive the federation until ``total_updates`` more client updates
        have been merged; returns the engine's metrics history.  Calling
        ``run`` again continues the same federation (version, virtual clock,
        and metrics carry over).

        This is a template over the policy's :meth:`_execute` loop: a
        callback-requested stop (:class:`~repro.engine.metrics.StopRun`,
        raised from the ``MetricsCollector.add`` hook point) is caught here
        for *every* policy, so all six execution policies honor callbacks
        and early stopping without per-policy wiring; the run then finishes
        normally (drain in-flight updates, final evaluation).
        """
        from repro.engine.metrics import StopRun

        if self.metrics is not None:
            self.metrics.reset_stop()  # a stop from a previous run is spent
        try:
            self._execute(total_updates)
        except StopRun as stop:
            _LOG.info("scheduler %s stopped early: %s", self.name, stop.reason)
        return self._finish()

    def _execute(self, total_updates: Optional[int]) -> None:
        """The policy's driving loop (overridden by concrete policies)."""
        raise NotImplementedError

    def _start(self, total_updates: Optional[int]) -> int:
        """Per-run bookkeeping; returns the target value of ``self.applied``."""
        assert self.engine is not None, "call bind(engine) before run()"
        if self.tier != "site":
            # site-tier chunks run many times per federation; their
            # coordinator already set up every node before the first chunk,
            # so they skip the fleet-wide actor round-trip
            self.engine.setup_async()
        self._wall_anchor = time.perf_counter()
        if total_updates is None:
            total_updates = self.engine.global_rounds * len(self.clients)
        if total_updates < 1:
            raise ValueError("total_updates must be >= 1")
        if self._eval_updates:
            self._next_eval = self.applied + self._eval_updates
        return self.applied + int(total_updates)

    def drain(self) -> None:
        """Retire every still-in-flight dispatch without aggregating it.

        Called at the end of a run so no training futures are left queued on
        the actors (they would otherwise stall ``engine.shutdown``) and no
        pinned dispatch-time state outlives the run.  Site-tier bindings
        restore the clock afterwards: cancelled-at-the-boundary dispatches
        must not delay the site's upload timestamp (their updates never
        merge anywhere, so their latency gates nothing)."""
        before = self.now
        while self.queue:
            self.retire(self.queue.pop())
        if self.tier == "site":
            self.now = before

    def _finish(self) -> "MetricsCollector":
        """Drain, make sure the run ends on an evaluated record, and return
        the metrics (mirrors the sync engine's always-evaluate-last-round)."""
        assert self.engine is not None and self.metrics is not None
        self.drain()
        if self._eval_updates:
            self.metrics.evaluate_last(self.engine.evaluate)
        return self.metrics

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(selection={self._selection!r}, "
            f"concurrency={self.concurrency}, version={self.version}, "
            f"applied={self.applied})"
        )


def build_scheduler(name: str, /, **kwargs) -> Scheduler:
    """Build a registered scheduler (``sync``, ``semi_sync``, ``fedasync``,
    ``fedbuff``) by name."""
    return SCHEDULERS.build(name, **kwargs)
