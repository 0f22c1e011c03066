"""Edge cases for client selection: oversized k, empty pools, single-trainer
federations, loss-biased selection before any losses exist, and the guards
that keep degenerate configurations from hanging the scheduler loop."""

import pytest

from repro.engine import Engine
from repro.experiment import DataSpec, ExperimentSpec, FaultSpec, TrainSpec
from repro.scheduler import build_scheduler
from repro.scheduler.selection import build_selector

ALL_STRATEGIES = ("random", "round_robin", "power_of_choice")


def tiny_engine(fresh_port, num_clients=1, scheduler=None, **faults):
    return Engine.from_spec(ExperimentSpec(
        topology="centralized",
        topology_kwargs={"num_clients": num_clients,
                         "inner_comm": {"backend": "torchdist", "master_port": fresh_port}},
        data=DataSpec(dataset="blobs", kwargs={"train_size": 64, "test_size": 32}, batch_size=16),
        train=TrainSpec(model="mlp", global_rounds=1),
        faults=FaultSpec(**faults),
        scheduler=scheduler,
    ))


# ------------------------------------------------------------ strategy level
@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_k_larger_than_population_is_clamped(name):
    s = build_selector(name, seed=0)
    chosen = s.select([3, 1, 2], 10)
    assert sorted(chosen) == [1, 2, 3]


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_empty_pool_returns_empty(name):
    s = build_selector(name, seed=0)
    assert s.select([], 5) == []


@pytest.mark.parametrize("name", ALL_STRATEGIES)
@pytest.mark.parametrize("k", [0, -3])
def test_nonpositive_k_returns_empty(name, k):
    s = build_selector(name, seed=0)
    assert s.select([1, 2, 3], k) == []


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_singleton_pool_always_selected(name):
    s = build_selector(name, seed=0)
    for round_idx in range(5):
        assert s.select([7], 1, round_idx) == [7]


def test_power_of_choice_before_any_losses_exist():
    """With no loss history, selection must still return k clients (unseen
    clients rank first, so it degrades to exploration, not a crash)."""
    s = build_selector("power_of_choice", seed=0)
    assert len(s.select([1, 2, 3, 4], 2, losses=None)) == 2
    assert len(s.select([1, 2, 3, 4], 2, losses={})) == 2


def test_power_of_choice_partial_losses():
    """Clients without a recorded loss outrank any client with one."""
    s = build_selector("power_of_choice", seed=0, d=4)
    chosen = s.select([1, 2, 3, 4], 2, losses={1: 9.0, 2: 8.0})
    assert set(chosen) & {3, 4}  # at least one unseen client explored


def test_power_of_choice_degenerate_d_clamped():
    s = build_selector("power_of_choice", seed=0, d=0)
    assert len(s.select([1, 2, 3, 4], 2)) == 2
    s = build_selector("power_of_choice", seed=0, d=99)
    assert len(s.select([1, 2, 3, 4], 2)) == 2


def test_round_robin_oversized_k_keeps_counts_even():
    s = build_selector("round_robin", seed=0)
    for _ in range(4):
        s.select([1, 2], 5)
    assert s._served == {1: 4, 2: 4}


# ------------------------------------------------------------ federation level
def test_single_trainer_sync_engine(fresh_port):
    eng = tiny_engine(fresh_port, num_clients=1)
    metrics = eng.run(1)
    eng.shutdown()
    assert metrics.last is not None


@pytest.mark.parametrize("policy", ["fedasync", "fedbuff", "sync", "semi_sync"])
def test_single_trainer_federation_under_every_policy(fresh_port, policy):
    eng = tiny_engine(fresh_port, num_clients=1, scheduler=policy)
    metrics = eng.run_async(total_updates=2)
    eng.shutdown()
    assert metrics.total_applied() >= 2


def test_single_trainer_with_tiny_client_fraction(fresh_port):
    """fraction * 1 rounds to zero — concurrency must clamp to one."""
    eng = tiny_engine(fresh_port, num_clients=1, client_fraction=0.1, scheduler="fedasync")
    metrics = eng.run_async(total_updates=2)
    assert eng.scheduler.concurrency == 1
    eng.shutdown()
    assert metrics.total_applied() == 2


def test_power_of_choice_first_dispatch_has_no_losses(fresh_port):
    eng = tiny_engine(
        fresh_port,
        num_clients=4,
        selection="power_of_choice",
        client_fraction=0.5,
        scheduler="fedasync",
    )
    metrics = eng.run_async(total_updates=4)
    eng.shutdown()
    assert metrics.total_applied() == 4


def test_scheduler_concurrency_zero_clamped(fresh_port):
    sched = build_scheduler("fedasync", concurrency=0)
    eng = tiny_engine(fresh_port, num_clients=2, scheduler=sched)
    metrics = eng.run_async(total_updates=2)
    eng.shutdown()
    assert sched.concurrency == 1
    assert metrics.total_applied() == 2


# ------------------------------------------------------------ guards
def test_semi_sync_rejects_zero_clients_per_round():
    """Used to spin forever: no dispatches, no arrivals, no progress."""
    with pytest.raises(ValueError, match="clients_per_round"):
        build_scheduler("semi_sync", clients_per_round=0)


def test_semi_sync_empty_round_fails_loudly_instead_of_hanging(fresh_port):
    sched = build_scheduler("semi_sync")
    eng = tiny_engine(fresh_port, num_clients=2, scheduler=sched)
    eng.setup_async()
    sched.bind(eng)
    sched.clients = []  # simulate a pool that emptied under the scheduler
    with pytest.raises((RuntimeError, ValueError)):
        sched.run(2)
    eng.shutdown()


def test_zero_total_updates_rejected(fresh_port):
    eng = tiny_engine(fresh_port, num_clients=2, scheduler="fedasync")
    with pytest.raises(ValueError, match="total_updates"):
        eng.run_async(total_updates=0)
    eng.shutdown()
