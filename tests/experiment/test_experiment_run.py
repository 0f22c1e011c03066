"""Experiment.run(): dispatch, RunResult structure, persistence, callbacks."""

import pytest

from repro.engine.callbacks import EarlyStopping
from repro.experiment import (
    DataSpec,
    Experiment,
    ExperimentSpec,
    RunResult,
    SchedulerSpec,
    TrainSpec,
)

HETERO = {"latency": "lognormal", "mean": 0.3, "sigma": 0.5}


def tiny_spec(port, *, rounds=2, scheduler=None, total_updates=None, clients=2):
    return ExperimentSpec(
        topology="centralized",
        topology_kwargs={
            "num_clients": clients,
            "inner_comm": {"backend": "torchdist", "master_port": port},
        },
        data=DataSpec(dataset="blobs", kwargs={"train_size": 96, "test_size": 32},
                      batch_size=16),
        train=TrainSpec(algorithm="fedavg", algorithm_kwargs={"lr": 0.05},
                        model="mlp", model_kwargs={"hidden": [16]},
                        global_rounds=rounds),
        scheduler=scheduler,
        total_updates=total_updates,
        seed=3,
    )


def test_sync_run_returns_structured_result(fresh_port):
    result = Experiment(tiny_spec(fresh_port)).run()
    assert isinstance(result, RunResult)
    assert result.mode == "rounds"
    assert len(result.history) == 2
    assert result.final_accuracy() is not None
    assert result.final_state  # the global model came back
    assert "inner" in result.comm and result.comm["inner"]["bytes_sent"] > 0
    assert result.fingerprint and result.wall_seconds > 0
    assert result.stop_reason is None


def test_auto_mode_runs_async_when_scheduler_set(fresh_port):
    spec = tiny_spec(
        fresh_port,
        scheduler=SchedulerSpec(name="fedasync", kwargs={"heterogeneity": HETERO}),
        total_updates=6,
    )
    experiment = Experiment(spec)
    result = experiment.run()
    assert result.mode == "async"
    assert result.total_applied() == 6
    assert result.sim_makespan() > 0
    assert experiment.engine.scheduler is not None


def test_save_load_roundtrips_metrics_and_spec(tmp_path, fresh_port):
    spec = tiny_spec(fresh_port)
    result = Experiment(spec).run()
    out = result.save(str(tmp_path / "run"))
    loaded = RunResult.load(out)
    assert loaded.spec == spec
    assert loaded.mode == result.mode
    assert loaded.fingerprint == result.fingerprint
    assert [r.to_payload() for r in loaded.history] == [
        r.to_payload() for r in result.history
    ]
    assert loaded.comm.keys() == result.comm.keys()
    assert set(loaded.final_state) == set(result.final_state)
    for key in result.final_state:
        assert (loaded.final_state[key] == result.final_state[key]).all()


def test_early_stopping_halts_sync_rounds(fresh_port):
    es = EarlyStopping(monitor="train_loss", patience=0, min_delta=100.0)
    result = Experiment(tiny_spec(fresh_port, rounds=8), callbacks=[es]).run()
    assert len(result.history) < 8
    assert result.stop_reason is not None and "early stopping" in result.stop_reason


def test_early_stopping_halts_fedasync_through_same_hook(fresh_port):
    es = EarlyStopping(monitor="train_loss", patience=0, min_delta=100.0)
    spec = tiny_spec(
        fresh_port, rounds=8,
        scheduler=SchedulerSpec(name="fedasync", kwargs={"heterogeneity": HETERO}),
        total_updates=32,
    )
    result = Experiment(spec, callbacks=[es]).run()
    assert result.mode == "async"
    assert result.total_applied() < 32
    assert result.stop_reason is not None and "early stopping" in result.stop_reason


def test_experiment_rejects_non_spec():
    with pytest.raises(TypeError):
        Experiment({"topology": "centralized"})
