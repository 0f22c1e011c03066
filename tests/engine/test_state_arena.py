"""The state arena: preallocated per-client slabs behind the pool store.

The zero-copy tentpole: a pooled client's persistent state (algorithm
attrs, personal model entries) is copied once into its row of a shared
``(num_clients, *leaf_shape)`` slab at swap-out, and the stored snapshot
holds *views* into that row — so steady-state turns stop allocating one
short-lived state dict per persistent key per turn.  These tests pin the
adoption rules (views, in-place row reuse, per-leaf fallback on schema
drift, copy-on-write for untouched leaves) and that a real pooled run ends
up arena-backed while staying bit-identical to a dedicated-node run (the
equivalence suite covers the latter broadly; here we assert the arena was
actually engaged, so equivalence is not vacuously passing on plain dicts).
"""

import numpy as np

from repro.engine.client_state import ClientSnapshot, ClientStateStore, StateArena
from repro.experiment import Experiment, ExperimentSpec


# --------------------------------------------------------------------------
# adoption mechanics
# --------------------------------------------------------------------------
def snap(**model):
    return ClientSnapshot(model={k: np.asarray(v) for k, v in model.items()})


def test_adopt_turns_leaves_into_slab_views():
    arena = StateArena(4)
    s = snap(w=np.arange(6, dtype=np.float32).reshape(2, 3))
    out = arena.adopt(1, s)
    assert out is s  # in-place rewrite, same snapshot object
    slab = arena._slabs["model.w"]
    assert slab.shape == (4, 2, 3)
    assert s.model["w"].base is slab
    np.testing.assert_array_equal(s.model["w"], np.arange(6).reshape(2, 3))


def test_repeated_puts_reuse_the_same_row_memory():
    arena = StateArena(2)
    store = ClientStateStore(arena=arena)
    store.put(0, snap(w=np.zeros((3,), dtype=np.float64)))
    first = store.get(0).model["w"]
    store.put(0, snap(w=np.ones((3,), dtype=np.float64)))
    second = store.get(0).model["w"]
    # same arena row adopted both times: no new allocation, data overwritten
    assert first.__array_interface__["data"][0] == second.__array_interface__["data"][0]
    np.testing.assert_array_equal(second, np.ones(3))


def test_rows_of_different_clients_are_disjoint():
    arena = StateArena(3)
    a = arena.adopt(0, snap(w=np.full((2,), 1.0)))
    b = arena.adopt(2, snap(w=np.full((2,), 9.0)))
    np.testing.assert_array_equal(a.model["w"], [1.0, 1.0])
    np.testing.assert_array_equal(b.model["w"], [9.0, 9.0])
    b.model["w"][...] = -1.0
    np.testing.assert_array_equal(a.model["w"], [1.0, 1.0])


def test_schema_drift_falls_back_per_leaf():
    arena = StateArena(2)
    arena.adopt(0, snap(w=np.zeros((2, 2), dtype=np.float32)))
    drifted = snap(w=np.zeros((5,), dtype=np.float32))  # shape disagrees
    arena.adopt(1, drifted)
    assert drifted.model["w"].base is None  # left as a plain array
    assert arena.stats()["model.w"][0] == (2, 2, 2)  # slab untouched


def test_nested_and_non_array_leaves():
    arena = StateArena(2)
    s = ClientSnapshot(algo={
        "_c": {"w": np.arange(4.0), "b": np.zeros(2)},
        "count": 7,
        "nothing": None,
    })
    arena.adopt(0, s)
    assert sorted(arena.paths()) == ["algo._c.b", "algo._c.w"]
    assert s.algo["_c"]["w"].base is arena._slabs["algo._c.w"]
    assert s.algo["count"] == 7 and s.algo["nothing"] is None


def test_adopting_own_row_skips_the_copy():
    arena = StateArena(2)
    s = arena.adopt(0, snap(w=np.arange(3.0)))
    row = s.model["w"]
    again = arena.adopt(0, ClientSnapshot(model={"w": row}))
    assert again.model["w"] is row  # copy-on-write: untouched leaf, no work


def test_zero_dim_leaves_become_zero_dim_views():
    # fedbn persists batch-norm step counters as 0-d arrays; the row view
    # must stay a writable 0-d array, not collapse to a numpy scalar
    arena = StateArena(3)
    s = snap(steps=np.array(7, dtype=np.int64))
    arena.adopt(1, s)
    leaf = s.model["steps"]
    assert leaf.shape == () and leaf.base is arena._slabs["model.steps"]
    assert int(leaf) == 7
    arena.adopt(1, snap(steps=np.array(9, dtype=np.int64)))
    assert int(arena._slabs["model.steps"][1]) == 9


def test_out_of_range_client_is_left_plain():
    arena = StateArena(2)
    s = arena.adopt(5, snap(w=np.arange(3.0)))
    assert s.model["w"].base is None
    assert arena.paths() == []


def test_nbytes_counts_preallocated_slabs():
    arena = StateArena(8)
    arena.adopt(0, snap(w=np.zeros((4,), dtype=np.float32)))
    assert arena.nbytes() == 8 * 4 * 4


# --------------------------------------------------------------------------
# integration: pooled runs actually engage the arena
# --------------------------------------------------------------------------
def run_spec(algorithm, pool_size):
    spec = ExperimentSpec(
        topology="centralized",
        num_clients=6,
        pool_size=pool_size,
        data={
            "dataset": "blobs",
            "kwargs": {"train_size": 192, "test_size": 48},
            "partition": "dirichlet",
            "partition_alpha": 0.5,
            "batch_size": 32,
        },
        train={
            "algorithm": algorithm,
            "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1},
            "model": "mlp",
            "global_rounds": 2,
        },
        scheduler={"name": "sync"},
        total_updates=12,
        seed=0,
    )
    experiment = Experiment(spec)
    result = experiment.run()
    return experiment, result


def test_pooled_run_stores_arena_backed_snapshots():
    # scaffold persists its control variate (algo bucket); fedper persists
    # personalization layers (model bucket) — both must land in slabs
    for algorithm, bucket in (("scaffold", "algo"), ("fedper", "model")):
        experiment, _ = run_spec(algorithm, pool_size=2)
        store = experiment.engine.pool.store
        arena = store.arena
        assert arena is not None and arena.paths(), algorithm
        slabs = set(map(id, arena._slabs.values()))
        for client in store.clients():
            tree = getattr(store.get(client), bucket)
            leaves = [v for v in _leaves(tree) if isinstance(v, np.ndarray)]
            assert leaves, (algorithm, client)
            assert all(id(leaf.base) in slabs for leaf in leaves), (algorithm, client)


def _leaves(tree):
    for value in tree.values():
        if isinstance(value, dict):
            yield from _leaves(value)
        else:
            yield value


def test_arena_backed_equals_dedicated():
    # the headline guarantee, spot-checked here with a stateful algorithm:
    # bounded pool + arena reproduces a dedicated node per client bit for bit
    _, pooled = run_spec("scaffold", pool_size=2)
    _, dedicated = run_spec("scaffold", pool_size=None)
    pooled_recs = [{k: v for k, v in r.as_dict().items() if k != "wall_seconds"}
                   for r in pooled.history]
    dedicated_recs = [{k: v for k, v in r.as_dict().items() if k != "wall_seconds"}
                      for r in dedicated.history]
    assert pooled_recs == dedicated_recs
    assert set(pooled.final_state) == set(dedicated.final_state)
    for key in pooled.final_state:
        np.testing.assert_array_equal(
            pooled.final_state[key], dedicated.final_state[key], err_msg=key
        )
