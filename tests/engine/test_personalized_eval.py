"""Evaluation conventions: global-model vs per-client (FedBN, Ditto)."""

import numpy as np
import pytest

from repro.engine import Engine
from repro.experiment import DataSpec, ExperimentSpec, TrainSpec


def make(algorithm, fresh_port, **algo_kw):
    return Engine.from_spec(ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": 3,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 192, "test_size": 64}),
        train=TrainSpec(algorithm=algorithm,
                        algorithm_kwargs={"lr": 0.05, "local_epochs": 1, **algo_kw},
                        model="mlp", model_kwargs={"batch_norm": True}, global_rounds=2),
    ))


def test_fedbn_uses_personalized_eval(fresh_port):
    eng = make("fedbn", fresh_port)
    assert any(n.algorithm.personalized_eval for n in eng.nodes if n.role.trains())
    metrics = eng.run()
    eng.shutdown()
    assert metrics.final_accuracy() is not None


def test_fedavg_uses_global_eval(fresh_port):
    eng = make("fedavg", fresh_port)
    assert not any(n.algorithm.personalized_eval for n in eng.nodes if n.role.trains())
    eng.run()
    eng.shutdown()


def test_ditto_personal_eval_opt_in(fresh_port):
    eng = make("ditto", fresh_port, evaluate_personal=True)
    assert any(n.algorithm.personalized_eval for n in eng.nodes if n.role.trains())
    metrics = eng.run()
    eng.shutdown()
    assert metrics.final_accuracy() is not None


def test_node_evaluate_with_explicit_state(fresh_port):
    eng = make("fedavg", fresh_port)
    eng.run()
    node = next(n for n in eng.nodes if n.role.trains())
    before = node.model.state_dict()
    loss, acc = node.evaluate(eng.global_state(), max_batches=2)
    after = node.model.state_dict()
    # evaluating a foreign state must not clobber the local model
    for k in before:
        assert np.array_equal(before[k], after[k])
    assert 0.0 <= acc <= 1.0
    eng.shutdown()


def test_node_evaluate_requires_test_data(fresh_port):
    eng = make("fedavg", fresh_port)
    node = eng.nodes[1]
    node.test_dataset = None
    with pytest.raises(RuntimeError, match="test data"):
        node.evaluate()
    eng.shutdown()
