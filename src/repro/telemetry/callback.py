"""The ``Telemetry`` callback: one object that turns the lights on.

Attaching ``Telemetry()`` to a run installs a recording
:class:`~repro.telemetry.tracer.Tracer` on the engine and its nodes
(replacing the zero-cost no-op default), mirrors the record stream into a
:class:`~repro.telemetry.registry.MetricsRegistry`, registers the run in
the process-wide :class:`~repro.telemetry.runs.RunRegistry`, and — with
``serve=True`` — starts the live ops endpoint so ``/metrics``, ``/health``
and ``/runs`` answer while the experiment is still in flight.

Everything here *observes*; nothing feeds back into scheduling, selection,
or aggregation, which is what keeps traced runs bit-identical to untraced
ones (pinned by ``tests/scheduler/test_determinism.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.engine.callbacks import Callback
from repro.utils.logging import get_logger

from .registry import MetricsRegistry
from .runs import RunInfo, RunRegistry
from .server import OpsServer
from .tracer import NOOP_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import Engine
    from repro.engine.metrics import MetricsCollector, RoundRecord

__all__ = ["Telemetry", "GLOBAL_RUNS"]

_LOG = get_logger("telemetry")

#: process-wide run registry: every Telemetry callback registers its runs
#: here by default, so one ops endpoint can list all runs in the process.
GLOBAL_RUNS = RunRegistry()

#: staleness is measured in global versions; codec spans are sub-second
_STALENESS_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_SPAN_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


class Telemetry(Callback):
    """Turn-key observability for one run.

    Parameters
    ----------
    trace:
        Record dual-clock spans (default on).  ``False`` keeps the no-op
        tracer installed and only the registry/endpoint features are used.
    trace_path:
        Write the Chrome trace-event JSON here at shutdown (always also
        available in memory as ``telemetry.tracer``).
    serve / host / port:
        Start the ops endpoint on setup.  ``port=0`` binds an ephemeral
        port; read it back from ``telemetry.server.port``.
    registry / runs:
        Share a :class:`MetricsRegistry` / :class:`RunRegistry` across
        callbacks; defaults are a fresh registry and the module's
        :data:`GLOBAL_RUNS`.
    max_events:
        Tracer buffer cap (overflow is counted, not stored).
    """

    def __init__(
        self,
        trace: bool = True,
        trace_path: Optional[str] = None,
        serve: bool = False,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        runs: Optional[RunRegistry] = None,
        max_events: int = 1_000_000,
    ) -> None:
        self.trace = bool(trace)
        self.trace_path = trace_path
        self.registry = registry if registry is not None else MetricsRegistry()
        self.runs = runs if runs is not None else GLOBAL_RUNS
        self.tracer: Any = NOOP_TRACER
        if self.trace:
            self.tracer = Tracer(max_events=max_events, observer=self._observe_span)
        self.server: Optional[OpsServer] = None
        self._serve = bool(serve)
        self._host = host
        self._port = int(port)
        self.run_info: Optional[RunInfo] = None
        self._engine: Optional["Engine"] = None
        # per-span-name instrument caches: the observer runs on every span
        # (hot path under tracing), so skip the registry's lock + label-key
        # construction after the first hit
        self._wall_hist: Dict[str, Any] = {}
        self._sim_hist: Dict[str, Any] = {}
        self._bytes_ctr: Dict[str, Any] = {}
        # record-path instrument caches, same reasoning: on_update fires per
        # aggregation record and would otherwise pay a registry lookup per
        # instrument per record
        self._tier_inst: Dict[str, Any] = {}
        reg = self.registry
        self._updates_ctr = reg.counter("repro_updates_applied_total", "Client updates merged")
        self._bytes_sent_ctr = reg.counter("repro_bytes_sent_total", "Bytes uploaded by clients")
        self._sim_time_g = reg.gauge("repro_sim_time_seconds", "Scheduler virtual clock")
        self._staleness_h = reg.histogram(
            "repro_staleness", "Mean staleness (global versions) per aggregation",
            buckets=_STALENESS_BUCKETS,
        )
        self._runtime_gauges: Optional[tuple] = None
        # robust-aggregation counters are cumulative on the scheduler side;
        # the registry counters advance by deltas so re-sampling never
        # double-counts
        self._robust_ctrs: Optional[Dict[str, Any]] = None
        self._robust_seen: Dict[str, int] = {"attacked": 0, "clipped": 0, "rejected": 0}
        self._requeues_seen = 0

    # ------------------------------------------------------------------
    # span -> registry bridge
    # ------------------------------------------------------------------
    def _observe_span(
        self,
        name: str,
        cat: str,
        wall_seconds: Optional[float],
        sim_seconds: Optional[float],
        attrs: Dict[str, Any],
    ) -> None:
        if wall_seconds is not None:
            hist = self._wall_hist.get(name)
            if hist is None:
                hist = self._wall_hist[name] = self.registry.histogram(
                    "repro_span_seconds", "Wall-clock span durations by span name",
                    buckets=_SPAN_BUCKETS, span=name,
                )
            hist.observe(wall_seconds)
        if sim_seconds is not None:
            hist = self._sim_hist.get(name)
            if hist is None:
                hist = self._sim_hist[name] = self.registry.histogram(
                    "repro_span_sim_seconds", "Virtual-clock span durations by span name",
                    span=name,
                )
            hist.observe(sim_seconds)
        nbytes = attrs.get("bytes")
        if nbytes is not None:
            ctr = self._bytes_ctr.get(name)
            if ctr is None:
                ctr = self._bytes_ctr[name] = self.registry.counter(
                    "repro_codec_bytes_total", "Bytes through codec stages", stage=name,
                )
            ctr.inc(float(nbytes))

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_setup(self, engine: "Engine") -> None:
        self._engine = engine
        if self.trace:
            engine.tracer = self.tracer
            for node in engine.nodes:
                node.tracer = self.tracer
        fingerprint = None
        try:
            fingerprint = engine.spec.fingerprint()
        except Exception:  # noqa: BLE001 - opaque specs cannot serialize
            pass
        detail: Dict[str, Any] = {"topology": engine.topology.pattern}
        sched = engine.scheduler
        if sched is not None:
            detail["scheduler"] = getattr(sched, "name", type(sched).__name__)
        if engine.pool is not None:
            broker = engine.pool.broker
            detail["pool_size"] = engine.pool.pool_size
            detail["num_clients"] = engine.pool.num_clients
            detail["broker"] = broker.scheme
        self.run_info = self.runs.register(fingerprint=fingerprint, **detail)
        self.registry.gauge(
            "repro_run_active", "1 while this run is between setup and shutdown"
        ).set(1)
        if self._serve and self.server is None:
            self.server = OpsServer(
                registry=self.registry, runs=self.runs,
                host=self._host, port=self._port,
            ).start()
            _LOG.info("ops endpoint listening on %s", self.server.url)

    def on_update(self, record: "RoundRecord", metrics: "MetricsCollector") -> None:
        tier = record.tier
        pair = self._tier_inst.get(tier)
        if pair is None:
            pair = self._tier_inst[tier] = (
                self.registry.counter(
                    "repro_records_total", "Aggregation records observed", tier=tier
                ),
                self.registry.gauge("repro_train_loss", "Latest training loss", tier=tier),
            )
        records_ctr, loss_gauge = pair
        records_ctr.inc()
        self._updates_ctr.inc(record.applied)
        self._bytes_sent_ctr.inc(record.bytes_sent)
        self._sim_time_g.set(record.sim_time)
        loss_gauge.set(record.train_loss)
        self._staleness_h.observe(record.staleness_mean)
        self._sample_runtime_gauges()
        if self.run_info is not None:
            self.runs.update(
                self.run_info.run_id,
                rounds=len(metrics.history),
                sim_time=record.sim_time,
                last_train_loss=record.train_loss,
            )

    def on_evaluate(self, record: "RoundRecord", metrics: "MetricsCollector") -> None:
        if record.eval_accuracy is not None:
            self.registry.gauge("repro_eval_accuracy", "Latest evaluation accuracy").set(
                record.eval_accuracy
            )
            if self.run_info is not None:
                self.runs.update(self.run_info.run_id, last_eval_accuracy=record.eval_accuracy)
        if record.eval_loss is not None:
            self.registry.gauge("repro_eval_loss", "Latest evaluation loss").set(record.eval_loss)

    def _sample_runtime_gauges(self) -> None:
        """Poll scheduler/pool occupancy (reads only — never feeds back)."""
        engine = self._engine
        if engine is None:
            return
        if self._runtime_gauges is None:
            reg = self.registry
            self._runtime_gauges = (
                reg.gauge("repro_event_queue_depth", "In-flight events in the virtual-time queue"),
                reg.gauge("repro_clients_in_flight", "Clients with a dispatched update pending"),
                reg.gauge("repro_turns_dispatched", "Training turns dispatched so far"),
                reg.gauge("repro_pool_pending_turns", "Pool turns queued, not yet started"),
                reg.gauge("repro_pool_free_workers", "Idle pool workers"),
                reg.gauge(
                    "repro_pool_window_occupancy",
                    "Started-but-unconsumed turns counted against the admission window",
                ),
                reg.gauge("repro_pool_window_limit", "Admission-window size"),
                reg.gauge("repro_pool_turns_run", "Pool turns completed"),
                reg.gauge(
                    "repro_broker_queue_depth",
                    "Turns dispatched to the broker and not yet completed",
                ),
                reg.gauge(
                    "repro_broker_snapshot_bytes",
                    "Bytes of client state held behind the broker",
                ),
                reg.gauge(
                    "repro_broker_fused_turns",
                    "Turns a remote worker trained in a fused batch of two or more",
                ),
                reg.counter(
                    "repro_broker_requeues_total",
                    "Turns requeued after the worker holding them lost its lease",
                ),
            )
        (queue_g, inflight_g, turns_g, pending_g, free_g, occ_g, window_g,
         turns_run_g, broker_depth_g, broker_bytes_g, fused_g, requeues_c) = self._runtime_gauges
        sched = engine.scheduler
        if sched is not None and getattr(sched, "engine", None) is engine:
            queue_g.set(len(getattr(sched, "queue", ())))
            inflight_g.set(len(getattr(sched, "_in_flight", ())))
            counts = getattr(sched, "_dispatch_count", None)
            if counts:
                turns_g.set(sum(counts.values()))
        if sched is not None and getattr(sched, "engine", None) is engine:
            counters_fn = getattr(sched, "robust_counters", None)
            if counters_fn is not None:
                if self._robust_ctrs is None:
                    reg = self.registry
                    self._robust_ctrs = {
                        "attacked": reg.counter(
                            "repro_attacked_updates_total",
                            "Updates merged that came from byzantine clients",
                        ),
                        "clipped": reg.counter(
                            "repro_robust_clipped_total",
                            "Updates norm-clipped by the robust aggregator",
                        ),
                        "rejected": reg.counter(
                            "repro_robust_rejected_total",
                            "Updates trimmed or rejected by the robust aggregator",
                        ),
                    }
                counts = counters_fn()
                for key, ctr in self._robust_ctrs.items():
                    delta = int(counts.get(key, 0)) - self._robust_seen[key]
                    if delta > 0:
                        ctr.inc(delta)
                        self._robust_seen[key] += delta
        pool = engine.pool
        if pool is not None:
            pending_g.set(pool.pending_turns())
            free_g.set(pool.broker.idle_workers())
            occ_g.set(pool._unconsumed)
            window_g.set(pool._window)
            turns_run_g.set(pool.turns_run)
            broker_depth_g.set(pool.broker.queue_depth())
            broker_bytes_g.set(pool.broker.snapshot_bytes())
            info = pool.broker.describe()
            sizes = info.get("batch_sizes", {})
            fused_g.set(sum(n for k, n in sizes.items() if k > 1))
            requeued = int(info.get("requeues", 0)) - self._requeues_seen
            if requeued > 0:
                requeues_c.inc(requeued)
                self._requeues_seen += requeued

    def on_shutdown(self, engine: "Engine") -> None:
        self.registry.gauge(
            "repro_run_active", "1 while this run is between setup and shutdown"
        ).set(0)
        if self.run_info is not None:
            stop_reason = engine.metrics.stop_reason
            self.runs.finish(
                self.run_info.run_id,
                status="stopped" if stop_reason else "finished",
                stop_reason=stop_reason,
            )
        if self.trace_path and self.trace:
            try:
                self.tracer.save(self.trace_path)
                _LOG.info("trace written to %s (%d events)", self.trace_path, len(self.tracer))
            except OSError as exc:
                _LOG.warning("could not write trace to %s: %s", self.trace_path, exc)
        if self.server is not None:
            self.server.stop()
            self.server = None
