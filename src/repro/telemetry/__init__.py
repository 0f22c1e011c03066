"""Observability: dual-clock tracing, a metrics registry, and a live ops
endpoint.

* :class:`Tracer` / :data:`NOOP_TRACER` — dual-clock span recording with
  Chrome trace-event export (:mod:`repro.telemetry.tracer`);
* :class:`MetricsRegistry` — counters/gauges/histograms with Prometheus
  text exposition (:mod:`repro.telemetry.registry`);
* :class:`RunRegistry` / :class:`OpsServer` — the in-process run list and
  the HTTP thread serving ``/metrics``, ``/health``, ``/runs``;
* :class:`Telemetry` — the callback that wires all of it onto a run.

Every name resolves on first use (:mod:`repro.utils.lazy`): a process that
only records spans never loads the HTTP server, and ``Telemetry`` (which
imports the callback base from :mod:`repro.engine`) cannot close an import
cycle with :mod:`repro.engine.engine`, which imports the no-op tracer from
here.
"""

from repro.utils.lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "repro.telemetry.tracer": ["Tracer", "NoopTracer", "NOOP_TRACER"],
    "repro.telemetry.registry": ["MetricsRegistry", "Counter", "Gauge", "Histogram"],
    "repro.telemetry.runs": ["RunInfo", "RunRegistry"],
    "repro.telemetry.server": ["OpsServer"],
    "repro.telemetry.callback": ["Telemetry", "GLOBAL_RUNS"],
})
