"""A composed config to a running engine: the full YAML-driven path."""


from repro.config import ConfigNode
from repro.engine import Engine
from repro.experiment import ExperimentSpec


def base_cfg(fresh_port, **extra):
    cfg = {
        "topology": {
            "_target_": "repro.topology.CentralizedTopology",
            "num_clients": 2,
            "inner_comm": {"backend": "torchdist", "master_port": fresh_port},
        },
        "algorithm": {"_target_": "repro.algorithms.FedAvg", "lr": 0.05},
        "model": {"_target_": "repro.models.mlp", "hidden": [16]},
        "datamodule": {"_target_": "repro.data.registry.blobs", "train_size": 96, "test_size": 32},
        "global_rounds": 1,
        "batch_size": 16,
        "seed": 3,
    }
    cfg.update(extra)
    return cfg


def engine_from_config(cfg):
    return Engine.from_spec(ExperimentSpec.from_config(cfg))


def test_from_config_plain(fresh_port):
    eng = engine_from_config(base_cfg(fresh_port))
    metrics = eng.run()
    eng.shutdown()
    assert metrics.final_accuracy() is not None
    assert eng.topology.num_clients == 2


def test_from_config_injects_dataset_dims(fresh_port):
    eng = engine_from_config(base_cfg(fresh_port))
    node = eng.nodes[1]
    assert node.model.in_features == 32  # blobs' n_features
    assert node.model.classifier.out_features == 10
    eng.shutdown()


def test_from_config_with_compression(fresh_port):
    cfg = base_cfg(
        fresh_port,
        compression={"_target_": "repro.compression.TopK", "ratio": 5},
    )
    eng = engine_from_config(cfg)
    trainer = eng.nodes[1]
    assert trainer.compressor is not None and trainer.compressor.ratio == 5
    metrics = eng.run()
    eng.shutdown()
    assert metrics.final_accuracy() is not None


def test_from_config_with_privacy(fresh_port):
    cfg = base_cfg(
        fresh_port,
        privacy={"_target_": "repro.privacy.DifferentialPrivacy",
                 "epsilon": 5.0, "clip_norm": 10.0},
    )
    eng = engine_from_config(cfg)
    trainer = eng.nodes[1]
    assert trainer.dp is not None and trainer.dp.epsilon == 5.0
    assert eng.nodes[0].dp is None  # the aggregator does not privatize
    eng.run()
    eng.shutdown()


def test_from_config_accepts_config_node(fresh_port):
    eng = engine_from_config(ConfigNode(base_cfg(fresh_port)))
    eng.shutdown()


def test_from_config_per_algorithm_instances(fresh_port):
    eng = engine_from_config(base_cfg(fresh_port))
    algos = [n.algorithm for n in eng.nodes]
    assert len({id(a) for a in algos}) == len(algos)  # no shared state
    eng.shutdown()
