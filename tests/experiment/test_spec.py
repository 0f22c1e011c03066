"""ExperimentSpec: validation, serialization, and config equivalence."""

import os

import pytest

from repro.conf import CONF_DIR, builtin_store
from repro.config import compose
from repro.engine.metrics import MetricsCollector
from repro.experiment import (
    DataSpec,
    Experiment,
    ExperimentSpec,
    FaultSpec,
    PluginSpec,
    RunResult,
    SchedulerSpec,
    SpecError,
    TrainSpec,
)
from repro.scheduler import build_scheduler
from repro.topology import CentralizedTopology


# ----------------------------------------------------------------- validation
def test_defaults_are_valid():
    spec = ExperimentSpec()
    assert spec.run_mode() == "rounds"
    assert spec.data.partition == "dirichlet"


def test_mode_validated(tmp_path):
    # the knob is gone: in Python that is the dataclass's own TypeError; from
    # outside the program (a YAML, a RunResult archive) it is a SpecError
    # that says what to write instead
    with pytest.raises(TypeError):
        ExperimentSpec(mode="auto")
    hint = "'mode' was removed.*name a scheduler.*or none for synchronous rounds"
    with pytest.raises(SpecError, match=hint):
        ExperimentSpec.from_yaml("mode: auto\n")
    archive = RunResult(spec=ExperimentSpec(), metrics=MetricsCollector()).save(str(tmp_path))
    with open(os.path.join(archive, "spec.yaml"), "a", encoding="utf8") as fh:
        fh.write("mode: auto\n")
    with pytest.raises(SpecError, match=hint):
        RunResult.load(archive)


def test_global_rounds_validated():
    with pytest.raises(SpecError, match=r"train\.global_rounds must be >= 1"):
        ExperimentSpec(train=TrainSpec(global_rounds=0))


def test_client_fraction_validated():
    with pytest.raises(SpecError, match=r"faults\.client_fraction must be in \(0, 1\]"):
        ExperimentSpec(faults=FaultSpec(client_fraction=0.0))
    with pytest.raises(SpecError, match=r"faults\.client_fraction must be in \(0, 1\]"):
        ExperimentSpec(faults=FaultSpec(client_fraction=1.5))


def test_probability_knobs_validated():
    with pytest.raises(SpecError):
        FaultSpec(drop_prob=1.5)
    with pytest.raises(SpecError):
        FaultSpec(straggler_prob=-0.1)
    with pytest.raises(SpecError):
        DataSpec(batch_size=0)
    with pytest.raises(SpecError):
        ExperimentSpec(total_updates=0)


def test_scheduler_spec_shapes():
    assert SchedulerSpec.from_value(None) is None
    assert SchedulerSpec.from_value("fedasync") == SchedulerSpec(name="fedasync")
    flat = SchedulerSpec.from_value({"name": "fedbuff", "buffer_size": 8})
    assert flat == SchedulerSpec(name="fedbuff", kwargs={"buffer_size": 8})
    target = SchedulerSpec.from_value({"_target_": "repro.scheduler.FedAsyncScheduler"})
    assert target.name is None
    assert target.kwargs == {"_target_": "repro.scheduler.FedAsyncScheduler"}
    with pytest.raises(SpecError):
        SchedulerSpec.from_value({"buffer_size": 8})


def _four_clients(port):
    return {"num_clients": 4, "inner_comm": {"backend": "torchdist", "master_port": port}}


#: (case, spec fields, derived loop, run it end to end?) — every fact the one
#: derivation reads: a named scheduler, the broker registry's ``distributed``
#: flag, and ``pool_size`` against the trainer count (4 here)
_RUN_MODE_TABLE = [
    ("nothing", {}, "rounds", True),
    ("scheduler named", {"scheduler": "fedasync"}, "async", True),
    ("scheduler instance", {"scheduler": build_scheduler("fedbuff")}, "async", False),
    ("redis broker", {"broker": "redis://localhost:6379/0"}, "async", False),
    ("tcp broker", {"broker": "tcp://127.0.0.1:0"}, "async", False),
    ("inproc broker", {"broker": "inproc://derivation?min_nodes=1"}, "async", False),
    ("pool below the cohort", {"pool_size": 3}, "async", True),
    ("pool equal to the cohort", {"pool_size": 4}, "rounds", True),
    ("pool above the cohort", {"pool_size": 5}, "rounds", False),
    ("opaque topology, pool below",
     {"topology": CentralizedTopology(4, {"backend": "torchdist", "master_port": 29500}),
      "topology_kwargs": {}, "pool_size": 2}, "async", False),
    ("opaque topology, pool equal",
     {"topology": CentralizedTopology(4, {"backend": "torchdist", "master_port": 29500}),
      "topology_kwargs": {}, "pool_size": 4}, "rounds", False),
]


def test_auto_mode_dispatches_on_scheduler(fresh_port):
    for case, fields, expected, run_it in _RUN_MODE_TABLE:
        spec = ExperimentSpec(**{
            "topology_kwargs": _four_clients(fresh_port),
            "data": DataSpec(dataset="blobs", kwargs={"train_size": 96, "test_size": 32}),
            "train": TrainSpec(model="mlp", global_rounds=1),
            "total_updates": 4,
            **fields,
        })
        assert spec.run_mode() == expected, case
        # what ran is what was derived — nothing re-decides after construction
        if run_it:
            assert Experiment(spec).run().mode == expected, case


def test_unknown_keys_rejected():
    with pytest.raises(SpecError):
        ExperimentSpec.from_dict({"topologyy": "centralized"})
    with pytest.raises(SpecError):
        ExperimentSpec.from_dict({"data": {"datasett": "blobs"}})


@pytest.mark.parametrize("url,match", [
    ("memory://?window=9", r"unknown parameters \['window'\]"),
    ("redis://localhost:6379/0?leese=5", r"unknown parameters \['leese'\]"),
    ("redis://localhost:6379/0?lease=0", "must be positive"),
    ("redis://localhost:6379/0?lease=1&hb=1", "lease must exceed hb"),
    ("tcp://127.0.0.1:0?leese=5", r"unknown parameters \['leese'\]"),
    ("inproc://spec-url-check?leese=5", r"unknown parameters \['leese'\]"),
])
def test_every_scheme_validates_its_url_at_construction(url, match):
    # a typo in a URL parameter fails where the spec is written, not when a
    # run silently uses the default (redis:// used to ignore unknown keys)
    with pytest.raises(SpecError, match=match):
        ExperimentSpec(broker=url)


def test_known_url_parameters_stay_valid():
    for url in ("memory://", "redis://127.0.0.1:6379/0?run=bench7x1&claim=60",
                "redis://h:6379/1?workers=2&lease=30&hb=0.5&requeues=1",
                "tcp://127.0.0.1:0?min_nodes=2&hb=0.5&lease=3",
                "inproc://spec-url-check?min_nodes=1"):
        assert ExperimentSpec(broker=url).broker == url


# -------------------------------------------------------------- serialization
def _full_spec() -> ExperimentSpec:
    return ExperimentSpec(
        topology="hierarchical",
        topology_kwargs={"num_sites": 2, "clients_per_site": 2,
                         "inner_comm": {"backend": "torchdist", "master_port": 29777}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 128, "test_size": 32},
                      partition="iid", partition_alpha=1.0, batch_size=16,
                      feature_noniid=0.25),
        train=TrainSpec(algorithm="fedprox", algorithm_kwargs={"lr": 0.05, "mu": 0.1},
                        model="mlp", model_kwargs={"hidden": [8, 4]},
                        global_rounds=3, eval_every=2, eval_max_batches=4),
        plugins=PluginSpec(compressor="topk", compressor_kwargs={"ratio": 10},
                           outer_compressor="qsgd", outer_compressor_kwargs={"bits": 8},
                           dp={"epsilon": 8.0, "delta": 1e-5, "clip_norm": 1.0}),
        faults=FaultSpec(client_fraction=0.5, drop_prob=0.1, straggler_prob=0.2,
                         straggler_delay=0.3, selection="round_robin"),
        scheduler=SchedulerSpec(name="hier_async",
                                kwargs={"inner": "fedbuff", "outer": "fedasync"}),
        seed=7,
        total_updates=24,
    )


def test_yaml_roundtrip_full_spec():
    spec = _full_spec()
    assert ExperimentSpec.from_yaml(spec.to_yaml()) == spec


def test_save_load_roundtrip(tmp_path):
    spec = _full_spec()
    path = str(tmp_path / "spec.yaml")
    spec.save(path)
    assert ExperimentSpec.load(path) == spec


def test_fingerprint_tracks_content():
    a, b = _full_spec(), _full_spec()
    assert a.fingerprint() == b.fingerprint()
    c = ExperimentSpec.from_dict({**a.to_dict(), "seed": 8})
    assert c.fingerprint() != a.fingerprint()


def test_opaque_spec_cannot_serialize():
    spec = ExperimentSpec(train=TrainSpec(model=lambda: None))
    with pytest.raises(SpecError):
        spec.to_yaml()
    # but it still has a (best-effort) fingerprint
    assert spec.fingerprint()


# ------------------------------------------------- from_config over every YAML
def _group_options():
    options = []
    for group in sorted(os.listdir(CONF_DIR)):
        gdir = os.path.join(CONF_DIR, group)
        if not os.path.isdir(gdir) or group.startswith("__"):
            continue
        for fn in sorted(os.listdir(gdir)):
            if fn.endswith((".yaml", ".yml")):
                options.append((group, fn.rsplit(".", 1)[0]))
    return options


@pytest.mark.parametrize("group,option", _group_options())
def test_from_config_roundtrips_every_builtin_yaml(group, option):
    """Every shipped config group option composes into a spec that
    roundtrips through the YAML dumper unchanged."""
    cfg = compose(builtin_store(), "experiment", overrides=[f"{group}={option}"])
    spec = ExperimentSpec.from_config(cfg)
    assert ExperimentSpec.from_yaml(spec.to_yaml()) == spec


def test_from_config_maps_scalars():
    cfg = compose(
        builtin_store(), "experiment",
        overrides=["scheduler=fedasync", "global_rounds=7", "seed=5",
                   "client_fraction=0.5", "partition=iid"],
    )
    spec = ExperimentSpec.from_config(cfg)
    assert spec.train.global_rounds == 7
    assert spec.seed == 5
    assert spec.faults.client_fraction == 0.5
    assert spec.data.partition == "iid"
    assert isinstance(spec.scheduler, SchedulerSpec)
    assert "_target_" in spec.scheduler.kwargs


def test_from_config_missing_node_fails_loudly():
    with pytest.raises(SpecError):
        ExperimentSpec.from_config({"topology": {"_target_": "x"}})


def test_from_config_rejects_keys_it_does_not_read():
    # a typo in the primary YAML used to run with the default, silently
    with pytest.raises(SpecError, match=r"unknown keys \['global_round'\].*'global_rounds'"):
        ExperimentSpec.from_config(_tiny_cfg(29500, global_round=7))
    with pytest.raises(SpecError, match="'mode' was removed"):
        ExperimentSpec.from_config(_tiny_cfg(29500, mode="async"))


# ------------------------------------------- from_config / from_spec equivalence
def _tiny_cfg(fresh_port, **extra):
    cfg = {
        "topology": {
            "_target_": "repro.topology.CentralizedTopology",
            "num_clients": 2,
            "inner_comm": {"backend": "torchdist", "master_port": fresh_port},
        },
        "algorithm": {"_target_": "repro.algorithms.FedAvg", "lr": 0.05},
        "model": {"_target_": "repro.models.mlp", "hidden": [16]},
        "datamodule": {"_target_": "repro.data.registry.blobs",
                       "train_size": 96, "test_size": 32},
        "global_rounds": 1,
        "batch_size": 16,
        "seed": 3,
    }
    cfg.update(extra)
    return cfg


@pytest.mark.parametrize("extra", [
    {},
    {"compression": {"_target_": "repro.compression.TopK", "ratio": 5}},
    {"privacy": {"_target_": "repro.privacy.DifferentialPrivacy",
                 "epsilon": 5.0, "clip_norm": 10.0}},
    {"scheduler": {"_target_": "repro.scheduler.FedAsyncScheduler", "alpha": 0.5}},
], ids=["plain", "compression", "privacy", "scheduler"])
def test_from_config_and_from_spec_build_equivalent_engines(extra, fresh_port):
    """A composed config and the spec it dumps to (``--print-config`` then
    ``run <file>``) must construct identically-shaped executors."""
    from repro.engine import Engine

    legacy = Engine.from_spec(ExperimentSpec.from_config(_tiny_cfg(fresh_port, **extra)))
    dumped = ExperimentSpec.from_config(_tiny_cfg(fresh_port + 1, **extra)).to_yaml()
    modern = Engine.from_spec(ExperimentSpec.from_yaml(dumped))
    try:
        assert legacy.global_rounds == modern.global_rounds
        assert legacy.seed == modern.seed
        assert len(legacy.nodes) == len(modern.nodes)
        for a, b in zip(legacy.nodes, modern.nodes):
            assert type(a.algorithm) is type(b.algorithm)
            assert type(a.model) is type(b.model)
            assert a.model.state_dict().keys() == b.model.state_dict().keys()
            assert (a.compressor is None) == (b.compressor is None)
            assert (a.dp is None) == (b.dp is None)
        assert (legacy.scheduler is None) == (modern.scheduler is None)
        if legacy.scheduler is not None:
            assert type(legacy.scheduler) is type(modern.scheduler)
    finally:
        legacy.shutdown()
        modern.shutdown()
