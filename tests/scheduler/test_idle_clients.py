"""``Scheduler.idle_clients()``: a view over the bound client list that leaves
out the in-flight clients without copying the list — same members, same order,
as the list comprehension it replaced, whatever was dispatched and retired."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.experiment import ExperimentSpec
from repro.scheduler import build_scheduler
from repro.scheduler.base import _IdleView

#: a site-tier binding addresses engine nodes in whatever order its
#: coordinator lists them; positions and ids must not be confused
SCOPED_CLIENTS = [7, 2, 9, 4, 1, 6]


@pytest.fixture(scope="module")
def engine():
    spec = ExperimentSpec(
        topology="centralized",
        num_clients=9,
        data={"dataset": "blobs", "kwargs": {"train_size": 36, "test_size": 16, "seed": 0},
              "partition": "iid", "batch_size": 4},
        train={"algorithm": "fedavg", "model": "mlp", "global_rounds": 1, "eval_every": 0,
               "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1, "max_batches_per_epoch": 1}},
        seed=0,
    )
    eng = Engine.from_spec(spec)
    eng.setup_async()
    yield eng
    eng.shutdown()


def _bound(engine, scoped):
    sched = build_scheduler("fedasync", concurrency=4,
                            heterogeneity={"latency": "lognormal", "dropout": 0.3})
    if scoped:
        return sched.bind(engine, clients=SCOPED_CLIENTS, server_idx=0)
    return sched.bind(engine)


@pytest.mark.parametrize("scoped", [False, True], ids=["flat", "scoped"])
@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=24))
def test_idle_view_equals_the_list_comprehension(engine, scoped, ops):
    """After any interleaving of dispatches and retires (some dispatches
    dropped by the fault model, which occupy their client all the same)."""
    sched = _bound(engine, scoped)
    in_flight = []
    try:
        for dispatch, pick in ops:
            idle = sched.idle_clients()
            if dispatch and len(idle):
                in_flight.append(sched.dispatch(idle[pick % len(idle)]))
            elif in_flight:
                sched.retire(in_flight.pop(pick % len(in_flight)))
            expected = [c for c in sched.clients if c not in sched._in_flight]
            view = sched.idle_clients()
            assert isinstance(view, _IdleView)
            assert list(view) == expected
            assert len(view) == len(expected)
            assert [view[i] for i in range(len(view))] == expected
            assert [view[i - len(view)] for i in range(len(view))] == expected
            for bad in (len(view), -len(view) - 1):
                with pytest.raises(IndexError):
                    view[bad]
    finally:
        for event in in_flight:  # leave the shared engine's actors quiet
            sched.retire(event)


def test_bind_rejects_duplicate_client_ids(engine):
    with pytest.raises(ValueError, match="duplicate client ids"):
        build_scheduler("fedasync").bind(engine, clients=[1, 2, 1], server_idx=0)
