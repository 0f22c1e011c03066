"""Experiment API v2: typed specs, one entrypoint, structured results.

The top-level surface of the framework::

    from repro.experiment import DataSpec, Experiment, ExperimentSpec, TrainSpec

    spec = ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": 4,
                         "inner_comm": {"backend": "torchdist", "master_port": 29500}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 512, "test_size": 128}),
        train=TrainSpec(algorithm="fedavg", algorithm_kwargs={"lr": 0.05},
                        model="mlp", global_rounds=3),
    )
    result = Experiment(spec).run()
    print(result.table())
    result.save("runs/quickstart")

See :mod:`repro.experiment.spec` for the spec tree,
:mod:`repro.experiment.result` for :class:`RunResult`, and
:mod:`repro.engine.callbacks` for the callback subsystem.
"""

from repro.utils.lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "repro.experiment.experiment": ["Experiment"],
    "repro.experiment.result": ["RunResult"],
    "repro.experiment.spec": [
        "ExperimentSpec", "DataSpec", "TrainSpec", "PluginSpec", "FaultSpec",
        "SchedulerSpec", "AttackSpec", "AggregationSpec", "MTDSpec", "SpecError",
    ],
})
