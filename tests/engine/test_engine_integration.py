"""End-to-end federated runs across topologies, protocols and algorithms."""

import numpy as np
import pytest

from repro.compression import build_compressor
from repro.engine import Engine
from repro.experiment import DataSpec, ExperimentSpec, FaultSpec, PluginSpec, TrainSpec
from repro.privacy import DifferentialPrivacy
from repro.topology import CentralizedTopology, HierarchicalTopology

ALGOS = ["fedavg", "fedprox", "fedmom", "fednova", "scaffold", "moon",
         "fedper", "feddyn", "fedbn", "ditto", "diloco"]


def blobs_engine(fresh_port, *, topology="centralized", algorithm="fedavg",
                 rounds=3, clients=4, plugins=None, **faults):
    """``topology`` is a registry name, or a live object (the opaque spec
    form, which carries its own cohort and comm settings)."""
    return Engine.from_spec(ExperimentSpec(
        topology=topology,
        topology_kwargs={"num_clients": clients,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 512, "test_size": 128}),
        train=TrainSpec(algorithm=algorithm, algorithm_kwargs={"lr": 0.05, "local_epochs": 2},
                        model="mlp", global_rounds=rounds),
        plugins=PluginSpec(**(plugins or {})),
        faults=FaultSpec(**faults),
    ))


def test_fedavg_learns_blobs(fresh_port):
    eng = blobs_engine(fresh_port)
    metrics = eng.run()
    eng.shutdown()
    assert metrics.final_accuracy() > 0.85
    assert len(metrics.history) == 3


def test_accuracy_improves_over_rounds(fresh_port):
    eng = blobs_engine(fresh_port, rounds=4)
    metrics = eng.run()
    eng.shutdown()
    accs = [r.eval_accuracy for r in metrics.history]
    assert accs[-1] >= accs[0]


@pytest.mark.parametrize("backend", ["torchdist", "grpc", "mqtt", "amqp"])
def test_every_protocol_trains(backend, fresh_port):
    eng = Engine.from_spec(ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": 3,
                         "inner_comm": {"backend": backend, "master_port": fresh_port,
                                        "broker_url": f"inproc://t{fresh_port}"}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 256, "test_size": 64}),
        train=TrainSpec(algorithm="fedavg", algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
                        model="mlp", global_rounds=2),
    ))
    metrics = eng.run()
    eng.shutdown()
    assert metrics.final_accuracy() > 0.5


@pytest.mark.parametrize("algorithm", ALGOS)
def test_every_algorithm_completes_two_rounds(algorithm, fresh_port):
    eng = blobs_engine(fresh_port, algorithm=algorithm, rounds=2, clients=3)
    metrics = eng.run()
    eng.shutdown()
    assert len(metrics.history) == 2
    assert metrics.final_accuracy() is not None


@pytest.mark.parametrize("topology", ["ring", "p2p"])
def test_gossip_topologies_learn(topology, fresh_port):
    eng = blobs_engine(fresh_port, topology=topology, rounds=3)
    metrics = eng.run()
    eng.shutdown()
    assert metrics.final_accuracy() > 0.7


def test_gossip_reaches_consensus(fresh_port):
    eng = blobs_engine(fresh_port, topology="p2p", rounds=2, clients=3)
    eng.run()
    # after full-mesh uniform mixing every node holds the same model
    states = [n.model.state_dict() for n in eng.nodes]
    for k, v in states[0].items():
        if np.issubdtype(v.dtype, np.floating):
            for other in states[1:]:
                assert np.allclose(other[k], v, atol=1e-4)
    eng.shutdown()


def test_hierarchical_mixed_protocol(fresh_port):
    topo = HierarchicalTopology(
        num_sites=2, clients_per_site=2,
        inner_comm={"backend": "torchdist", "master_port": fresh_port,
                    "network_preset": "hpc_interconnect"},
        outer_comm={"backend": "grpc", "master_port": fresh_port + 100,
                    "transport": "inproc", "network_preset": "wan"},
    )
    eng = blobs_engine(fresh_port, topology=topo)
    metrics = eng.run()
    assert metrics.final_accuracy() > 0.85
    comm = eng.comm_summary()
    # the WAN outer link must dominate simulated cost (Fig. 7's point)
    assert comm["outer"]["sim_seconds"] > comm["inner"]["sim_seconds"]
    eng.shutdown()


def test_hierarchical_outer_compression(fresh_port):
    topo = HierarchicalTopology(
        num_sites=2, clients_per_site=2,
        inner_comm={"backend": "torchdist", "master_port": fresh_port},
        outer_comm={"backend": "grpc", "master_port": fresh_port + 100, "transport": "inproc"},
    )
    eng = blobs_engine(
        fresh_port, topology=topo,
        plugins={"outer_compressor": lambda: build_compressor("topk", ratio=10)},
    )
    metrics = eng.run()
    assert metrics.final_accuracy() > 0.8
    eng.shutdown()


@pytest.mark.parametrize("compressor,kw", [
    ("topk", {"ratio": 10}), ("qsgd", {"bits": 8}), ("powersgd", {"rank": 4}),
])
def test_compressed_training_still_learns(compressor, kw, fresh_port):
    eng = blobs_engine(fresh_port, plugins={"compressor": compressor, "compressor_kwargs": kw})
    metrics = eng.run()
    eng.shutdown()
    assert metrics.final_accuracy() > 0.7


def test_dp_training_runs_and_accounts(fresh_port):
    dp_holder = []

    def dp_fn():
        dp = DifferentialPrivacy(epsilon=10.0, delta=1e-5, clip_norm=50.0, seed=0)
        dp_holder.append(dp)
        return dp

    eng = Engine.from_spec(ExperimentSpec(
        topology=CentralizedTopology(3, {"backend": "torchdist", "master_port": fresh_port}),
        data=DataSpec(dataset="blobs", kwargs={"train_size": 256, "test_size": 64}),
        train=TrainSpec(algorithm="fedavg", algorithm_kwargs={"lr": 0.05},
                        model="mlp", global_rounds=2),
        plugins=PluginSpec(dp=dp_fn),
    ))
    metrics = eng.run()
    eng.shutdown()
    assert len(metrics.history) == 2
    # each trainer's accountant saw one release per round
    assert all(dp.accountant.steps == 2 for dp in dp_holder)


def test_client_sampling(fresh_port):
    eng = blobs_engine(fresh_port, clients=4, rounds=2, client_fraction=0.5)
    metrics = eng.run()
    eng.shutdown()
    participants = [
        sum(1 for stats in rec.per_node.values() if stats.get("participated"))
        for rec in metrics.history
    ]
    assert all(p == 2 for p in participants)


def test_failure_injection_dropped_clients(fresh_port):
    eng = blobs_engine(fresh_port, rounds=3, drop_prob=0.5)
    metrics = eng.run()
    eng.shutdown()
    assert len(metrics.history) == 3  # rounds survive dropouts
    assert metrics.final_accuracy() is not None


def test_straggler_injection_slows_round(fresh_port):
    eng = blobs_engine(fresh_port, rounds=1, straggler_prob=1.0, straggler_delay=0.3)
    metrics = eng.run()
    eng.shutdown()
    assert metrics.history[0].wall_seconds >= 0.3


def test_feature_noniid_with_fedbn(fresh_port):
    eng = Engine.from_spec(ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": 3,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="cifar10", kwargs={"train_size": 96, "test_size": 48},
                      batch_size=16, feature_noniid=0.4),
        train=TrainSpec(algorithm="fedbn", algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
                        model="simple_cnn", global_rounds=2, eval_every=2),
    ))
    metrics = eng.run()
    eng.shutdown()
    assert metrics.final_accuracy() is not None


def test_engine_validations():
    with pytest.raises(ValueError):
        blobs_engine(32900, rounds=0)
    with pytest.raises(ValueError):
        blobs_engine(32901, client_fraction=0.0)


def test_context_manager(fresh_port):
    with blobs_engine(fresh_port, rounds=1) as eng:
        eng.run(1)
    # shutdown happened without error


def test_comm_summary_nonzero(fresh_port):
    eng = blobs_engine(fresh_port, rounds=1)
    eng.run()
    summary = eng.comm_summary()
    assert summary["inner"]["bytes_sent"] > 0
    eng.shutdown()
