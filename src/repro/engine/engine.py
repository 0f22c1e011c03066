"""The Engine: the internal executor behind the Experiment API.

The engine is built from one validated :class:`~repro.experiment.spec.
ExperimentSpec` via :meth:`Engine.from_spec` — the only way in: it
instantiates node actors, wires their communicators, partitions data, drives
rounds (or hands control to the scheduler runtime), and collects metrics.

Plugins compose exactly as in OmniFed: a ``compressor`` applies to client
uploads (or, in hierarchical deployments, ``outer_compressor`` only to the
slow cross-site link — the paper's §3.4.5 trick), and ``dp`` privatizes
updates before they leave the node.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.comm.factory import build_communicator
from repro.engine.actor import ActorHandle, wait_all
from repro.engine.metrics import MetricsCollector, NodeStats, RoundRecord, StopRun
from repro.runtime import Broker, ClientPool, ClientRuntime, DedicatedRuntime, broker_class
from repro.runtime.fused import FusedTurnRunner
from repro.nn.serialization import state_average
from repro.node.node import Node
from repro.scheduler.base import build_scheduler
from repro.scheduler.selection import build_selector
from repro.telemetry.tracer import NOOP_TRACER
from repro.topology.base import NodeRole, NodeSpec
from repro.utils.logging import get_logger
from repro.utils.timer import SimClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.callbacks import Callback
    from repro.experiment.spec import ExperimentSpec

__all__ = ["Engine"]

_LOG = get_logger("engine")


class Engine:
    """Orchestrates one federated experiment, described by one spec."""

    def __init__(self, spec: "ExperimentSpec", callbacks: Iterable["Callback"] = ()) -> None:
        from repro.experiment import spec as spec_mod

        if not isinstance(spec, spec_mod.ExperimentSpec):
            raise TypeError(f"Engine.from_spec needs an ExperimentSpec, got {type(spec).__name__}")
        topology = spec_mod.resolve_topology(spec)
        datamodule = spec_mod.resolve_datamodule(spec)
        seed = int(spec.seed)

        topology.validate()
        self.spec = spec
        self.topology = topology
        self.datamodule = datamodule
        self.global_rounds = int(spec.train.global_rounds)
        self.eval_every = int(spec.train.eval_every)
        self.eval_max_batches = spec.train.eval_max_batches
        self.client_fraction = float(spec.faults.client_fraction)
        self.seed = seed
        self.metrics = MetricsCollector()
        self.metrics.callbacks.extend(callbacks)
        self.sim_clock = SimClock()
        # the Telemetry callback swaps in a recording tracer at setup; every
        # hook site reads this attribute per call, so the default costs one
        # no-op dispatch and nothing else
        self.tracer = NOOP_TRACER
        self.selector = build_selector(
            spec.faults.selection, seed=seed, **dict(spec.faults.selection_kwargs)
        )
        self.scheduler = spec_mod.resolve_scheduler(spec.scheduler)
        self._last_losses: Dict[int, float] = {}
        self._bytes_seen = 0
        self._sim_comm_seen = 0.0
        #: key tuples shared by every round's per-node stats (see NodeStats)
        self._stat_keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

        node_specs = topology.specs()
        n_trainers = topology.trainer_count()
        # adversarial-robustness wiring: the attack plan is a pure function
        # of (spec, cohort, classes) so every worker process derives
        # the identical attacker set from the published spec; the robust
        # factory hands every scheduler binding (each hierarchical site
        # tier included) its own counter-carrying aggregator instance
        self.attack_plan = spec_mod.resolve_attack_plan(spec, n_trainers, datamodule.num_classes)
        self.robust_factory = spec_mod.resolve_robust_fn(spec)
        self.mtd = spec.mtd
        if self.mtd is not None and topology.pattern != "gossip":
            raise ValueError(
                f"moving-target defense re-samples a gossip overlay; the "
                f"{topology.pattern!r} topology pattern has none (drop the "
                "mtd block or switch to a gossip topology)"
            )
        if self.robust_factory is not None and spec.run_mode(n_trainers) == "rounds":
            raise ValueError(
                "robust aggregation plugs into the scheduler runtime; the "
                "synchronous rounds loop would silently ignore it — name a "
                "scheduler policy (e.g. scheduler: sync)"
            )
        self.data_provider = spec_mod.resolve_data_provider(spec, datamodule, n_trainers)

        pool_size = spec.pool_size
        broker_url = spec.broker
        pooled = spec.pooled(n_trainers)
        if pooled and topology.pattern != "server":
            raise ValueError(
                f"client-pool execution (broker={broker_url!r}, "
                f"pool_size={pool_size}, {n_trainers} clients) needs a "
                f"server-pattern topology; {topology.pattern!r} topologies "
                "require dedicated nodes (use the memory broker with "
                "pool_size >= the trainer count, or leave pool_size null)"
            )

        make_node = spec_mod.resolve_node_fn(spec, datamodule, self.attack_plan)

        self.nodes: List[Node] = []
        self.actors: List[ActorHandle] = []
        self.pool: Optional[ClientPool] = None
        if pooled:
            # aggregators/relays materialize as real nodes (listed first, so
            # actors[i] serves nodes[i]); the cohort's trainers become
            # logical clients served by broker workers (no communicator
            # groups: pooled execution runs on the scheduler runtime, which
            # moves updates through turn tickets)
            for nspec in node_specs:
                if nspec.role.trains():
                    continue
                self.nodes.append(make_node(nspec, None))
                self.actors.append(ActorHandle(self.nodes[-1], name=nspec.name))
            if broker_class(broker_url).distributed:
                # worker processes rebuild their own trainer nodes from the
                # spec the broker publishes (a live broker also binds its
                # listen address here, so workers may dial before run()); a
                # probe trainer built as theirs answers for them: evaluation
                # convention and fused runner (what fuses is known at submit)
                probe = make_node(NodeSpec(name="fusion_probe", index=1_000_000,
                                           role=NodeRole.TRAINER))
                probe.setup_local()
                self._personalized_eval = bool(probe.algorithm.personalized_eval)
                broker = Broker(
                    broker_url,
                    spec=spec,
                    num_clients=n_trainers,
                    default_workers=int(pool_size) if pool_size is not None else None,
                    runner=FusedTurnRunner.build(probe.fusion_context()),
                )
                del probe
            else:
                # one trainer node serves every logical client, called on
                # whichever thread pumps the pool: it gets no actor, and
                # pool_size counts dispatch slots, not replicas
                wspec = NodeSpec(name="pool_worker", index=1 + max(s.index for s in node_specs),
                                 role=NodeRole.TRAINER)
                self.nodes.append(make_node(wspec, None))
                broker = Broker(broker_url, node=self.nodes[-1], slots=int(pool_size),
                                num_clients=n_trainers)
            self.pool = ClientPool(
                num_clients=n_trainers,
                broker=broker,
                data_provider=self.data_provider,
            )
        else:
            for nspec in node_specs:
                train_ds = (
                    self.data_provider.view(nspec.shard) if nspec.shard is not None else None
                )
                node = make_node(nspec, train_ds)
                for gname, gspec in nspec.groups.items():
                    node.comms[gname] = build_communicator(
                        gspec.comm_config, gspec.rank, gspec.world_size, self.sim_clock
                    )
                self.nodes.append(node)
                self.actors.append(ActorHandle(node, name=nspec.name))

        self._setup_done = False
        self._shutdown_done = False
        self._callbacks_setup_fired = False

    @classmethod
    def from_spec(
        cls,
        spec: "ExperimentSpec",
        callbacks: Iterable["Callback"] = (),
    ) -> "Engine":
        """Build the executor for one :class:`ExperimentSpec`."""
        return cls(spec, callbacks)

    # ------------------------------------------------------------------
    # client runtimes: how logical client ids reach node actors
    # ------------------------------------------------------------------
    def client_runtime(self) -> ClientRuntime:
        """The runtime for flat scheduler bindings: the client pool when
        configured, otherwise one dedicated actor per logical client (ids
        are data-shard indices, identical across all modes)."""
        if self.pool is not None:
            return self.pool
        mapping = {}
        for pos, node in enumerate(self.nodes):
            if node.role.trains():
                cid = node.spec.shard if node.spec.shard is not None else node.spec.index
                mapping[cid] = pos
        return DedicatedRuntime(self, mapping)

    def node_runtime(self, node_indices: Iterable[int]) -> ClientRuntime:
        """A dedicated runtime over explicit engine node indices (scoped
        site-tier bindings address nodes directly)."""
        pos_of = {n.spec.index: i for i, n in enumerate(self.nodes)}
        return DedicatedRuntime(self, {int(c): pos_of[int(c)] for c in node_indices})

    # ------------------------------------------------------------------
    def _fire_setup_callbacks(self) -> None:
        if self._callbacks_setup_fired:
            return
        self._callbacks_setup_fired = True
        for cb in self.metrics.callbacks:
            # lifecycle hooks are isolated like the record hooks in
            # MetricsCollector.add: one broken observer must not kill the run
            try:
                cb.on_setup(self)
            except Exception:  # noqa: BLE001 - observer errors never abort
                _LOG.exception("callback %s failed in on_setup", type(cb).__name__)

    def setup(self) -> None:
        if self._setup_done:
            return
        if self.pool is not None:
            # pooled nodes have no communicator groups to rendezvous
            self.setup_async()
            self._setup_done = True
            return
        # the RPC server (rank 0) must bind before clients dial in, so set up
        # aggregators first, then everyone else in parallel
        for node, actor in zip(self.nodes, self.actors):
            if node.role.aggregates():
                actor.call("setup", timeout=30)
        futures = [
            actor.submit("setup")
            for node, actor in zip(self.nodes, self.actors)
            if not node.role.aggregates()
        ]
        wait_all(futures, timeout=60)
        self._setup_done = True
        self._fire_setup_callbacks()
        _LOG.info("engine ready: %s", self.topology.describe())

    def setup_async(self) -> None:
        """Algorithm/state setup without binding communicators.

        The scheduler runtime moves updates through actor futures, so nodes
        skip the collective rendezvous entirely; if the engine was already
        set up for synchronous rounds, the per-node guard makes this a no-op.
        """
        futures = [actor.submit("setup_local") for actor in self.actors]
        wait_all(futures, timeout=60)
        if self.pool is not None:
            # a live broker blocks here until its joining quorum is reached
            self.pool.start()
        self._fire_setup_callbacks()

    # ------------------------------------------------------------------
    def run_round(self, round_idx: int, total_rounds: Optional[int] = None) -> RoundRecord:
        """Run one synchronized round.

        ``total_rounds`` is the length of the run this round belongs to
        (defaults to the configured ``global_rounds``): the final round of
        the *actual* run always evaluates, regardless of cadence.
        """
        if self.pool is not None:
            raise RuntimeError(
                "client-pool execution has no collective rounds: run under "
                "the scheduler runtime (Engine.run_async, or Experiment.run, "
                "which picks it for every pooled spec)"
            )
        self.setup()
        pattern = self.topology.pattern
        participants = self._select_participants(round_idx)
        start = time.perf_counter()
        with self.tracer.span("engine.round", cat="engine", round=round_idx):
            futures = [
                actor.submit("run_round", round_idx, pattern, node.spec.index in participants)
                for node, actor in zip(self.nodes, self.actors)
            ]
            results = wait_all(futures, timeout=600)
        wall = time.perf_counter() - start

        record = RoundRecord(round_idx=round_idx, wall_seconds=wall)
        losses, accs, weights = [], [], []
        record.per_node = per_node = {}
        for node, res in zip(self.nodes, results):
            per_node[node.name] = NodeStats(
                {k: v for k, v in res.items() if isinstance(v, (int, float))}, self._stat_keys
            )
            if res.get("participated") and "loss" in res:
                losses.append(res["loss"] * res.get("samples", 1.0))
                accs.append(res["accuracy"] * res.get("samples", 1.0))
                weights.append(res.get("samples", 1.0))
                self._last_losses[node.spec.index] = float(res["loss"])
        total_w = sum(weights)
        if total_w > 0:
            record.train_loss = sum(losses) / total_w
            record.train_accuracy = sum(accs) / total_w
        # comm stats accumulate over the experiment's lifetime; report the
        # per-round delta so round N does not re-count rounds 0..N-1
        sim_total = self.sim_clock.total
        record.sim_comm_seconds = sim_total - self._sim_comm_seen
        self._sim_comm_seen = sim_total
        bytes_total = sum(
            int(s["bytes_sent"]) for node in self.nodes for s in node.comm_stats().values()
        )
        record.bytes_sent = bytes_total - self._bytes_seen
        self._bytes_seen = bytes_total
        # the final round of the run always evaluates; gate on the actual run
        # length, not the configured default (run(rounds=n) used to mis-time
        # or skip its last evaluation when n != global_rounds)
        final_idx = (total_rounds if total_rounds is not None else self.global_rounds) - 1
        if self.eval_every > 0 and ((round_idx + 1) % self.eval_every == 0 or round_idx == final_idx):
            record.eval_loss, record.eval_accuracy = self.evaluate()
        self.metrics.add(record)
        return record

    def run(self, rounds: Optional[int] = None) -> MetricsCollector:
        """Run the full experiment; returns the metrics history."""
        n = rounds if rounds is not None else self.global_rounds
        self.metrics.reset_stop()  # a stop from a previous run is spent
        try:
            for r in range(n):
                rec = self.run_round(r, total_rounds=n)
                _LOG.info(
                    "round %d: loss=%.4f acc=%.4f eval=%s (%.2fs)",
                    r, rec.train_loss, rec.train_accuracy,
                    f"{rec.eval_accuracy:.4f}" if rec.eval_accuracy is not None else "-",
                    rec.wall_seconds,
                )
        except StopRun as stop:
            _LOG.info("run stopped early: %s", stop.reason)
            # mirror the scheduler runtime's _finish: a stopped run still
            # ends on an evaluated record
            if self.eval_every > 0:
                self.metrics.evaluate_last(self.evaluate)
        return self.metrics

    def run_async(
        self,
        total_updates: Optional[int] = None,
        scheduler: Optional[Any] = None,
    ) -> MetricsCollector:
        """Run under an asynchronous execution policy instead of per-round
        barriers.

        ``scheduler`` (or the engine's configured one) decides when client
        updates enter the global model — ``fedasync`` merges each arrival
        with a staleness-discounted weight, ``fedbuff`` flushes buffered
        deltas every K arrivals, ``semi_sync`` closes rounds on a deadline,
        and ``sync`` reproduces barrier semantics under the same simulated
        straggler model.  On a hierarchical topology the default is
        ``hier_async``: every site head runs a nested inner policy over its
        trainers while the root merges site uploads asynchronously on the
        slow outer link (``scheduler.inner=...`` / ``scheduler.outer=...``
        pick the per-tier policies).  On a gossip (ring/p2p/custom)
        topology the default is ``gossip_async``: serverless asynchronous
        neighbor exchange under per-edge latency, with
        ``scheduler.neighbor_selection`` / ``scheduler.mixing`` choosing
        who exchanges and how states average.  Runs until ``total_updates``
        client updates have been aggregated (default: ``global_rounds ×``
        the trainer count).
        """
        sched = self.scheduler
        if scheduler is not None:
            from repro.experiment.spec import SchedulerSpec, resolve_scheduler

            sched = resolve_scheduler(SchedulerSpec.from_value(scheduler))
        if sched is None:
            default = {"hierarchical": "hier_async", "gossip": "gossip_async"}
            sched = build_scheduler(default.get(self.topology.pattern, "fedasync"))
        # remember whatever actually runs, so a later run_async() continues
        # this federation instead of silently starting a fresh default one
        self.scheduler = sched
        sched.bind(self)
        return sched.run(total_updates)

    # ------------------------------------------------------------------
    def _select_participants(self, round_idx: int) -> set:
        """Pick this round's participants via the selection strategy."""
        trainer_idxs = [n.spec.index for n in self.nodes if n.role.trains()]
        everyone = {n.spec.index for n in self.nodes}
        if self.client_fraction >= 1.0:
            return everyone
        k = max(1, int(round(self.client_fraction * len(trainer_idxs))))
        chosen = set(self.selector.select(trainer_idxs, k, round_idx, losses=self._last_losses))
        # aggregators/relays always participate
        return chosen | {n.spec.index for n in self.nodes if not n.role.trains()}

    # ------------------------------------------------------------------
    def global_state(self) -> Dict[str, np.ndarray]:
        for node in self.nodes:
            if node.role is NodeRole.AGGREGATOR and node.global_state is not None:
                return node.global_state
        if self.topology.pattern == "gossip":
            # consensus (mixing-weighted) average of the peers, not node 0's
            # state: with a gossip scheduler live, its ledger is the source
            # of truth (safe to read while training futures are in flight);
            # otherwise average the node models directly (the synchronous
            # path, where rounds have fully completed)
            sched = self.scheduler
            if sched is not None and getattr(sched, "peer_states", None):
                return sched.consensus_state()
            return state_average(
                [n.model.state_dict() for n in self.nodes],
                [float(w) for w in self.topology.consensus_weights()],
            )
        return self.nodes[0].model.state_dict()

    def evaluate(self) -> tuple:
        """(loss, accuracy) under the algorithm's evaluation convention."""
        with self.tracer.span("engine.evaluate", cat="engine"):
            trainers = [n for n in self.nodes if n.role.trains()]
            if trainers:
                personalized = any(n.algorithm.personalized_eval for n in trainers)
            else:
                # distributed broker: trainer nodes live in worker processes
                personalized = getattr(self, "_personalized_eval", False)
            if personalized:
                # each logical client's own model, through whichever runtime
                # serves it (pool-swapped or dedicated actors — the
                # ClientRuntime contract makes the fan-out uniform)
                return self.client_runtime().evaluate_all(self.eval_max_batches)
            state = self.global_state()
            evaluator = next(
                (i for i, n in enumerate(self.nodes) if n.role is NodeRole.AGGREGATOR),
                0,
            )
            return self.actors[evaluator].call(
                "evaluate", state, self.eval_max_batches, timeout=300
            )

    # ------------------------------------------------------------------
    def comm_summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate communication statistics per group name."""
        totals: Dict[str, Dict[str, float]] = {}
        for node in self.nodes:
            for gname, snap in node.comm_stats().items():
                bucket = totals.setdefault(gname, {})
                for k, v in snap.items():
                    bucket[k] = bucket.get(k, 0.0) + v
        return totals

    def shutdown(self) -> None:
        """Stop every node and actor; idempotent and safe after a failed
        :meth:`setup` (a node whose setup never ran, or raised partway,
        must not hang the teardown of the rest of the fleet)."""
        if self._shutdown_done:
            return
        self._shutdown_done = True
        if self.pool is not None:
            self.pool.shutdown()
        futures = []
        for actor in self.actors:
            try:
                futures.append(actor.submit("shutdown"))
            except RuntimeError:
                continue  # actor already stopped
        try:
            wait_all(futures, timeout=30)
        except Exception as exc:  # noqa: BLE001 - teardown must not mask the run
            _LOG.warning("node shutdown reported %s: %s", type(exc).__name__, exc)
        finally:
            for actor in self.actors:
                actor.stop()
        for cb in self.metrics.callbacks:
            try:
                cb.on_shutdown(self)
            except Exception:  # noqa: BLE001 - observer errors never abort
                _LOG.exception("callback %s failed in on_shutdown", type(cb).__name__)

    def __enter__(self) -> "Engine":
        try:
            self.setup()
        except BaseException:
            # the with-body (and so __exit__) never runs when setup raises:
            # tear actors down here or their threads outlive the failure
            self.shutdown()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
