"""Engine: orchestration of rounds, nodes, resources and metrics.

The paper's Engine "launches and coordinates all distributed experiments,
manages node lifecycle and resource allocation, and collects report
metrics".  Here nodes run as thread actors (the Ray substitute); the engine
spawns one per :class:`~repro.topology.base.NodeSpec`, drives synchronized
rounds, and aggregates metrics and communication statistics.  Build it from
a spec with ``Engine.from_spec`` — or stay one level up and use
:class:`repro.experiment.Experiment`.
"""

from repro.utils.lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "repro.engine.engine": ["Engine"],
    "repro.engine.actor": ["ActorHandle"],
    "repro.engine.metrics": ["MetricsCollector", "RoundRecord", "StopRun"],
    "repro.engine.callbacks": ["Callback", "EarlyStopping", "Checkpoint", "CSVLogger"],
})
