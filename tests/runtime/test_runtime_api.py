"""The public runtime API surface.

``repro.runtime`` is the home of ``ClientRuntime`` and friends.
``ExperimentSpec`` carries the broker choice as a URL string with full
YAML/CLI plumbing, and legacy pool-only specs keep meaning what they always
meant.
"""

import warnings

import pytest

from repro.experiment import ExperimentSpec
from repro.runtime import ClientPool, ClientRuntime, DedicatedRuntime


def test_engine_itself_does_not_trip_the_shim():
    # building and running a pooled experiment emits no deprecation
    # warning of its own (the repro.engine.pool shim it once had to avoid
    # importing is gone)
    from repro.experiment import Experiment

    spec = ExperimentSpec(
        num_clients=3,
        pool_size=2,
        data={"dataset": "blobs", "kwargs": {"train_size": 96, "test_size": 32},
              "partition": "iid", "batch_size": 32},
        train={"algorithm": "fedavg", "algorithm_kwargs": {"lr": 0.05},
               "model": "mlp", "global_rounds": 1, "eval_every": 0},
        scheduler={"name": "fedasync"},
        total_updates=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        Experiment(spec).run()


# --------------------------------------------------------------------------
# the runtime contract
# --------------------------------------------------------------------------
def test_client_runtime_contract_surface():
    for name in ("submit", "evaluate_all", "shutdown"):
        assert callable(getattr(ClientRuntime, name))
    assert ClientRuntime.pooled is False
    assert DedicatedRuntime.pooled is False
    assert ClientPool.pooled is True
    assert issubclass(DedicatedRuntime, ClientRuntime)
    assert issubclass(ClientPool, ClientRuntime)


def test_dedicated_runtime_submits_to_mapped_actors():
    class _Actor:
        def __init__(self):
            self.calls = []

        def submit(self, method, *args, **kwargs):
            self.calls.append((method, args, kwargs))
            return f"ticket-{method}"

    class _Engine:
        actors = [_Actor(), _Actor(), _Actor()]

    runtime = DedicatedRuntime(_Engine(), {"4": 2, 7: 0})
    assert runtime.client_ids() == [4, 7]
    assert runtime.submit(4, "local_update", 1.5, epochs=2) == "ticket-local_update"
    assert _Engine.actors[2].calls == [("local_update", (1.5,), {"epochs": 2})]
    assert _Engine.actors[1].calls == []
    runtime.shutdown()  # no-op: the engine owns its actors


# --------------------------------------------------------------------------
# the spec's broker field
# --------------------------------------------------------------------------
def test_spec_broker_defaults_to_memory():
    spec = ExperimentSpec()
    assert spec.broker == "memory://"
    assert ExperimentSpec(broker=None).broker == "memory://"


def test_spec_broker_yaml_roundtrip():
    url = "redis://queue.internal:6380/2?workers=3&lease=15"
    spec = ExperimentSpec(num_clients=4, broker=url)
    again = ExperimentSpec.from_yaml(spec.to_yaml())
    assert again.broker == url
    assert again == spec


def test_spec_rejects_unknown_broker_scheme():
    with pytest.raises(ValueError) as err:
        ExperimentSpec(broker="amqp://rabbit:5672")
    assert "registered schemes" in str(err.value)
    assert "memory" in str(err.value) and "redis" in str(err.value)


def test_legacy_pool_only_spec_means_memory_broker():
    # a spec that predates the broker field maps onto memory:// unchanged
    yaml_text = ExperimentSpec(num_clients=4, pool_size=2).to_yaml()
    lines = [ln for ln in yaml_text.splitlines() if not ln.startswith("broker")]
    legacy = ExperimentSpec.from_yaml("\n".join(lines))
    assert legacy.broker == "memory://"
    assert legacy.pool_size == 2
    assert legacy.run_mode() == "async"


def test_distributed_broker_forces_async_mode():
    spec = ExperimentSpec(broker="redis://localhost:6379/0?workers=2")
    assert spec.run_mode() == "async"
    assert ExperimentSpec().run_mode() == "rounds"


def test_cli_override_reaches_the_spec(capsys):
    from repro.__main__ import main

    rc = main([
        "--print-config",
        "model=mlp", "datamodule=blobs", "topology.num_clients=2",
        "broker=redis://localhost:6379/1?workers=2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    # the printed YAML loads back with the broker intact
    assert ExperimentSpec.from_yaml(out).broker == "redis://localhost:6379/1?workers=2"


def test_cli_default_broker_is_memory(capsys):
    from repro.__main__ import main

    rc = main(["--print-config", "model=mlp", "datamodule=blobs",
               "topology.num_clients=2"])
    assert rc == 0
    assert ExperimentSpec.from_yaml(capsys.readouterr().out).broker == "memory://"
