"""Per-round accounting: bytes/sim-seconds must be deltas, not cumulative.

Regression test: ``record.bytes_sent`` used to sum the nodes' *lifetime*
``comm_stats()`` totals every round, so round N re-counted rounds 0..N-1 and
``MetricsCollector.total_bytes()`` was quadratic in the round count.
"""

import pytest

from repro.engine import Engine
from repro.experiment import DataSpec, ExperimentSpec, TrainSpec


def _engine(fresh_port, rounds=3):
    return Engine.from_spec(ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": 3,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 256, "test_size": 64}),
        train=TrainSpec(algorithm="fedavg", algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
                        model="mlp", global_rounds=rounds, eval_every=0),
    ))


def test_bytes_sent_is_per_round_delta(fresh_port):
    eng = _engine(fresh_port)
    metrics = eng.run()
    lifetime_total = sum(
        int(s["bytes_sent"]) for node in eng.nodes for s in node.comm_stats().values()
    )
    eng.shutdown()
    per_round = [r.bytes_sent for r in metrics.history]
    assert all(b > 0 for b in per_round)
    # identical rounds move identical traffic — cumulative accounting would
    # make round N about N times round 0
    assert max(per_round) < 1.5 * min(per_round)
    assert metrics.total_bytes() == lifetime_total


def test_sim_comm_seconds_is_per_round_delta(fresh_port):
    eng = _engine(fresh_port)
    metrics = eng.run()
    lifetime_sim = eng.sim_clock.total
    eng.shutdown()
    total = sum(r.sim_comm_seconds for r in metrics.history)
    assert total == pytest.approx(lifetime_sim)


def test_custom_rounds_final_eval_fires(fresh_port):
    """Regression: ``run(rounds=n)`` used to gate the always-evaluate-last
    round on ``global_rounds``, so shorter custom runs skipped their final
    evaluation (and longer ones evaluated mid-run instead of at the end)."""
    eng = _engine(fresh_port, rounds=5)
    eng.eval_every = 10  # cadence alone would never trigger within 2 rounds
    metrics = eng.run(rounds=2)
    eng.shutdown()
    assert len(metrics.history) == 2
    assert metrics.history[-1].eval_accuracy is not None  # final round evaluated
    assert metrics.history[0].eval_accuracy is None


def test_custom_rounds_longer_than_configured(fresh_port):
    eng = _engine(fresh_port, rounds=2)
    eng.eval_every = 10
    metrics = eng.run(rounds=4)
    eng.shutdown()
    assert len(metrics.history) == 4
    # only the true final round evaluates — not round global_rounds-1 == 1
    evals = [i for i, r in enumerate(metrics.history) if r.eval_accuracy is not None]
    assert evals == [3]
