"""Engine.shutdown: idempotency and safety after a partially-failed setup."""

import pytest

from repro.engine import Engine
from repro.experiment import DataSpec, ExperimentSpec, TrainSpec


def tiny_engine(port, clients=2):
    spec = ExperimentSpec(
        topology="centralized",
        topology_kwargs={
            "num_clients": clients,
            "inner_comm": {"backend": "torchdist", "master_port": port},
        },
        data=DataSpec(dataset="blobs", kwargs={"train_size": 96, "test_size": 32},
                      batch_size=16),
        train=TrainSpec(algorithm="fedavg", algorithm_kwargs={"lr": 0.05},
                        model="mlp", model_kwargs={"hidden": [16]}, global_rounds=1),
        seed=3,
    )
    return Engine.from_spec(spec)


def test_shutdown_is_idempotent(fresh_port):
    engine = tiny_engine(fresh_port)
    engine.run()
    engine.shutdown()
    engine.shutdown()  # second call is a no-op, not an error
    engine.shutdown()


def test_shutdown_without_setup_does_not_hang(fresh_port):
    engine = tiny_engine(fresh_port)
    engine.shutdown()  # nothing was ever set up; must return promptly


def test_shutdown_after_failed_setup(fresh_port):
    """A node whose setup raises partway must not wedge the teardown."""
    engine = tiny_engine(fresh_port)

    def explode():
        raise RuntimeError("injected setup failure")

    engine.nodes[0].setup = explode
    with pytest.raises(RuntimeError, match="injected setup failure"):
        engine.setup()
    engine.shutdown()
    engine.shutdown()  # still idempotent after the failure path


def test_context_manager_tears_down_on_setup_failure(fresh_port):
    engine = tiny_engine(fresh_port)

    def explode():
        raise RuntimeError("injected setup failure")

    engine.nodes[0].setup = explode
    with pytest.raises(RuntimeError, match="injected setup failure"):
        with engine:
            pytest.fail("the with-body must not run after a failed setup")
    # actors were stopped by __enter__'s cleanup; shutdown stays a no-op
    engine.shutdown()
    assert all(not actor._alive for actor in engine.actors)


def test_comm_shutdown_failure_does_not_block_fleet(fresh_port):
    engine = tiny_engine(fresh_port)
    engine.setup()

    class BrokenComm:
        def shutdown(self):
            raise OSError("socket already gone")

    engine.nodes[0].comms["broken"] = BrokenComm()
    engine.shutdown()  # swallowed with a warning; the rest tore down
    assert all(not actor._alive for actor in engine.actors)


# ------------------------------------------------------- freed when dropped
def _pooled_spec():
    return ExperimentSpec(
        topology="centralized", num_clients=4, pool_size=2,
        data=DataSpec(dataset="blobs", kwargs={"train_size": 96, "test_size": 32},
                      batch_size=16),
        train=TrainSpec(algorithm="fedavg", algorithm_kwargs={"lr": 0.05},
                        model="mlp", model_kwargs={"hidden": [16]}, global_rounds=1),
        scheduler={"name": "sync"},
        seed=3,
    )


def _dedicated_spec():
    spec = _pooled_spec()
    return ExperimentSpec.from_dict({**spec.to_dict(), "pool_size": None})


@pytest.mark.parametrize("make_spec", [_pooled_spec, _dedicated_spec])
def test_dropped_engine_is_freed_without_the_cycle_collector(make_spec):
    """Nothing an engine owns points back at it (scheduler, runtime, broker,
    the models' name indexes): the last reference going away frees its models
    and snapshots there and then.  When they waited for the collector, the
    peak memory of building engines in a row depended on where a collection
    happened to fall."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        engine = Engine.from_spec(make_spec())
        engine.run_async(total_updates=4)
        engine.shutdown()
        gone = [weakref.ref(engine), weakref.ref(engine.scheduler),
                weakref.ref(engine.nodes[-1].model)]
        if engine.pool is not None:
            gone += [weakref.ref(engine.pool), weakref.ref(engine.pool.broker)]
        del engine
        assert [ref() for ref in gone] == [None] * len(gone)
    finally:
        gc.enable()
