"""OmniFed reproduction: configurable federated learning from edge to HPC.

Top-level convenience surface; see DESIGN.md for the system inventory.
Every name resolves on first use (:mod:`repro.utils.lazy`), so importing
one module of the package never loads the rest of it.

Quickstart (the Experiment API v2)::

    from repro import DataSpec, Experiment, ExperimentSpec, TrainSpec

    spec = ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": 8,
                         "inner_comm": {"backend": "grpc", "master_port": 50051}},
        data=DataSpec(dataset="cifar10"),
        train=TrainSpec(algorithm="fedavg", model="resnet18", global_rounds=2),
    )
    result = Experiment(spec).run()
    print(result.summary())
"""

from repro.utils.lazy import lazy_surface

__version__ = "0.2.0"

# registries are named by package, not by defining module: importing the
# package is what registers its members
__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "repro.engine.engine": ["Engine"],
    "repro.experiment.experiment": ["Experiment"],
    "repro.experiment.spec": [
        "ExperimentSpec", "DataSpec", "TrainSpec", "PluginSpec", "FaultSpec",
        "SchedulerSpec", "AttackSpec", "AggregationSpec", "MTDSpec",
    ],
    "repro.experiment.result": ["RunResult"],
    "repro.engine.callbacks": ["Callback", "EarlyStopping", "Checkpoint", "CSVLogger"],
    "repro.telemetry.callback": ["Telemetry"],
    "repro.telemetry.tracer": ["Tracer"],
    "repro.telemetry.registry": ["MetricsRegistry"],
    "repro.telemetry.server": ["OpsServer"],
    "repro.algorithms": ["ALGORITHMS", "build_algorithm"],
    "repro.compression": ["COMPRESSORS", "build_compressor"],
    "repro.data": ["DATAMODULES", "build_datamodule"],
    "repro.models": ["MODELS", "build_model"],
    "repro.topology": ["TOPOLOGIES", "build_topology"],
    "repro.config": ["ConfigStore", "compose", "instantiate"],
})
__all__ += ["__version__"]
