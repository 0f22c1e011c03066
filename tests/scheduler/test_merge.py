"""The merge rules of ``scheduler/policies.py``.

``_interpolate`` allocates less than the expression it was written as, and
must still be that expression bit for bit.  ``merge_barrier``,
``merge_interpolate`` and ``merge_buffered`` are the one copy of each
policy's rule that every tier calls; they are checked here on a bare
stand-in scheduler, in their plain and their robust case.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.robust.aggregators import Median
from repro.scheduler.hierarchical import HierarchicalScheduler
from repro.scheduler.policies import (
    FedAsyncScheduler,
    FedBuffScheduler,
    SemiSyncScheduler,
    SyncScheduler,
    _interpolate,
    merge_barrier,
    merge_buffered,
    merge_interpolate,
)


def _written_out(g, c, weight):
    return ((1.0 - weight) * g + weight * np.asarray(c)).astype(g.dtype)


@pytest.mark.parametrize("g_dtype, c_dtype", [
    (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64),
])
@pytest.mark.parametrize("weight", [0.6, 0.6 * 0.5 ** 0.5, np.float64(0.3)])
def test_interpolate_is_the_written_out_formula(g_dtype, c_dtype, weight, rng):
    g = {"w": rng.standard_normal((5, 3)).astype(g_dtype), "b": rng.standard_normal(3).astype(g_dtype)}
    c = {k: rng.standard_normal(v.shape).astype(c_dtype) for k, v in g.items()}
    before = {k: v.copy() for k, v in {**g, **{"c" + k: v for k, v in c.items()}}.items()}
    out = _interpolate(g, c, weight)
    for key in g:
        want = _written_out(g[key], c[key], weight)
        # a numpy-scalar weight computes wider, but never widens the state
        assert out[key].dtype == g[key].dtype
        assert np.array_equal(out[key], want)
        assert not np.shares_memory(out[key], g[key]) and not np.shares_memory(out[key], c[key])
    after = {**g, **{"c" + k: v for k, v in c.items()}}
    assert all(np.array_equal(after[k], before[k]) for k in before)  # inputs untouched


def test_interpolate_adopts_integer_buffers_and_keeps_unmatched_keys():
    g = {"steps": np.asarray(3, dtype=np.int64), "w": np.ones(2, dtype=np.float32),
         "only_global": np.full(2, 7.0, dtype=np.float32)}
    c = {"steps": np.asarray(9, dtype=np.int64), "w": np.zeros(2, dtype=np.float32),
         "only_client": np.ones(1)}
    out = _interpolate(g, c, 0.25)
    assert set(out) == set(g)
    assert out["steps"] == 9 and out["steps"].dtype == np.int64
    assert out["steps"] is not c["steps"] and out["only_global"] is not g["only_global"]
    assert np.array_equal(out["only_global"], g["only_global"])
    assert np.array_equal(out["w"], np.full(2, 0.75, dtype=np.float32))


class _SpyMedian(Median):
    """The median rule, remembering what each ``combine`` call was given."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def combine(self, states, weights, base=None):
        self.calls.append((list(states), list(weights), base))
        return super().combine(states, weights, base=base)


class _SpyAlgorithm:
    def __init__(self, result):
        self.result = result
        self.calls = []

    def aggregate(self, entries, global_state, version):
        self.calls.append((entries, global_state, version))
        return self.result


def _sched(global_state, robust=None, algorithm=None):
    return SimpleNamespace(
        global_state=global_state, version=4, robust=robust,
        server=SimpleNamespace(algorithm=algorithm),
    )


def _state(value, dtype=np.float32):
    return {"w": np.full(3, value, dtype=dtype), "steps": np.asarray(2, dtype=np.int64)}


def test_merge_barrier_plain_is_the_algorithms_aggregate():
    result = _state(5.0)
    algo = _SpyAlgorithm(result)
    g = _state(1.0)
    sched = _sched(g, algorithm=algo)
    entries = [{"rank": 0, "state": _state(3.0), "meta": {"num_samples": 2.0}}]
    merge_barrier(sched, entries)
    assert sched.global_state is result and sched.version == 5
    assert algo.calls == [(entries, g, 4)]


def test_merge_barrier_robust_weights_states_by_num_samples():
    robust = _SpyMedian()
    algo = _SpyAlgorithm(None)
    g = _state(0.0)
    sched = _sched(g, robust=robust, algorithm=algo)
    entries = [
        {"rank": r, "state": _state(v), "meta": meta}
        for r, (v, meta) in enumerate([(1.0, {"num_samples": 0.5}), (2.0, {}), (100.0, {"num_samples": 3})])
    ]
    merge_barrier(sched, entries)
    assert algo.calls == [] and sched.version == 5
    (states, weights, base), = robust.calls
    assert [s["w"][0] for s in states] == [1.0, 2.0, 100.0]
    assert weights == [0.5, 1.0, 3.0] and base is g
    assert np.array_equal(sched.global_state["w"], np.full(3, 2.0, dtype=np.float32))
    assert sched.global_state["steps"] == 2


def test_merge_interpolate_plain_leaves_the_window_alone():
    g, c = _state(1.0), _state(3.0)
    window = []
    sched = _sched(g)
    merge_interpolate(sched, window, 3, c, 0.25)
    assert window == [] and sched.version == 5
    want = _interpolate(g, c, 0.25)
    assert all(np.array_equal(sched.global_state[k], want[k]) for k in want)
    assert np.array_equal(sched.global_state["w"], np.full(3, 1.5, dtype=np.float32))


def test_merge_interpolate_robust_combines_the_last_cap_arrivals():
    robust = _SpyMedian()
    sched = _sched(_state(0.0), robust=robust)
    window = []
    for value in (1.0, 2.0, 4.0, 1000.0):
        merge_interpolate(sched, window, 3, _state(value), 1.0)
    assert sched.version == 8
    assert [s["w"][0] for s in window] == [2.0, 4.0, 1000.0]
    # weight 1 moves the model onto the target: the window's median, not
    # the poisoned newest arrival
    assert np.array_equal(sched.global_state["w"], np.full(3, 4.0, dtype=np.float32))
    states, weights, _ = robust.calls[-1]
    assert len(states) == 3 and weights == [1.0, 1.0, 1.0]


def _item(delta, weight):
    return {"delta": {"w": np.full(3, delta)}, "weight": weight}


def test_merge_buffered_plain_divides_by_the_count_not_the_weights():
    g = {"w": np.ones(3, dtype=np.float32), "steps": np.asarray(2, dtype=np.int64)}
    sched = _sched(g)
    buffer = [_item(2.0, 0.5), _item(4.0, 0.5)]
    buffer[0]["delta"]["absent"] = np.ones(1)
    merge_buffered(sched, buffer, 2.0)
    # 1 + 2 · (0.5·2 + 0.5·4) / 2: a uniformly stale buffer steps smaller
    assert np.array_equal(sched.global_state["w"], np.full(3, 4.0, dtype=np.float32))
    assert sched.global_state["w"].dtype == np.float32
    assert set(sched.global_state) == {"w", "steps"} and sched.global_state["steps"] == 2
    assert np.array_equal(g["w"], np.ones(3, dtype=np.float32)) and sched.version == 5


def test_merge_buffered_robust_combines_the_discounted_deltas():
    robust = _SpyMedian()
    sched = _sched({"w": np.zeros(3, dtype=np.float32)}, robust=robust)
    merge_buffered(sched, [_item(4.0, 1.0), _item(6.0, 0.5), _item(900.0, 1.0)], 0.5)
    # median of the discounted deltas (4, 3, 900) is 4 — undiscounted it
    # would be 6 — times server_lr
    assert np.array_equal(sched.global_state["w"], np.full(3, 2.0, dtype=np.float32))
    (states, weights, base), = robust.calls
    assert [s["w"][0] for s in states] == [4.0, 3.0, 900.0]
    assert weights == [1.0, 1.0, 1.0] and base is None


@pytest.mark.parametrize("policy, uses", [
    (SyncScheduler, True), (SemiSyncScheduler, True),
    (FedAsyncScheduler, False), (FedBuffScheduler, False),
])
def test_flat_policies_declare_whether_they_merge_through_aggregate(policy, uses):
    assert policy().uses_algorithm_aggregate is uses


@pytest.mark.parametrize("outer", ["sync", "fedasync", "fedbuff"])
def test_hierarchical_root_derives_the_guard_from_its_outer_policy(outer):
    assert HierarchicalScheduler(outer=outer).uses_algorithm_aggregate is (outer == "sync")
