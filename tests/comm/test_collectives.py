import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import CollectiveGroup
from repro.comm.network import NetworkModel
from repro.utils.timer import SimClock


def run_ranks(group, fn):
    """Run fn(rank) on world_size threads; re-raise first error."""
    errors = []
    results = [None] * group.world_size

    def work(rank):
        try:
            results[rank] = fn(rank)
        except Exception as exc:  # noqa: BLE001
            errors.append((rank, exc))

    threads = [threading.Thread(target=work, args=(r,)) for r in range(group.world_size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if errors:
        raise errors[0][1]
    return results


@pytest.mark.parametrize("world", [1, 2, 3, 4, 7])
def test_allreduce_sum_and_mean(world, rng):
    group = CollectiveGroup(world)
    data = [rng.standard_normal(23).astype(np.float32) for _ in range(world)]
    expected_sum = np.sum(data, axis=0)

    results = run_ranks(group, lambda r: group.allreduce(r, data[r], "sum"))
    for out in results:
        assert np.allclose(out, expected_sum, atol=1e-5)

    results = run_ranks(group, lambda r: group.allreduce(r, data[r], "mean"))
    for out in results:
        assert np.allclose(out, expected_sum / world, atol=1e-5)


@pytest.mark.parametrize("op", ["sum", "mean"])
@pytest.mark.parametrize("world", [1, 3])
def test_allreduce_preserves_shape(world, op, rng):
    # world 1 takes its own early return, which must reshape like the ring
    group = CollectiveGroup(world)
    data = [rng.standard_normal((4, 5)).astype(np.float32) for _ in range(world)]
    results = run_ranks(group, lambda r: group.allreduce(r, data[r], op))
    expected = np.sum(data, axis=0) / (world if op == "mean" else 1)
    for out in results:
        assert out.shape == (4, 5)
        assert np.allclose(out, expected, atol=1e-5)


def test_allreduce_rejects_bad_op():
    group = CollectiveGroup(1)
    with pytest.raises(ValueError):
        group.allreduce(0, np.zeros(3), "max")


def test_allgather(rng):
    group = CollectiveGroup(4)
    data = [np.full(3, r, np.float32) for r in range(4)]
    results = run_ranks(group, lambda r: group.allgather(r, data[r]))
    for out in results:
        assert len(out) == 4
        for r, arr in enumerate(out):
            assert np.allclose(arr, r)


def test_allgather_variable_sizes(rng):
    group = CollectiveGroup(3)
    data = [np.arange(r + 1, dtype=np.float32) for r in range(3)]
    results = run_ranks(group, lambda r: group.allgather(r, data[r]))
    assert [a.size for a in results[0]] == [1, 2, 3]


def test_broadcast_object():
    group = CollectiveGroup(4)
    payload = {"model": np.ones(5, np.float32), "round": 2}
    results = run_ranks(group, lambda r: group.broadcast(r, payload if r == 0 else None, src=0))
    for out in results:
        assert out["round"] == 2 and np.allclose(out["model"], 1.0)


def test_broadcast_from_nonzero_src():
    group = CollectiveGroup(3)
    results = run_ranks(group, lambda r: group.broadcast(r, "hello" if r == 2 else None, src=2))
    assert results == ["hello"] * 3


def test_gather_and_scatter():
    group = CollectiveGroup(4)
    results = run_ranks(group, lambda r: group.gather(r, r * 10, dst=0))
    assert results[0] == [0, 10, 20, 30]
    assert results[1] is None

    results = run_ranks(
        group, lambda r: group.scatter(r, [f"item{i}" for i in range(4)] if r == 0 else None, src=0)
    )
    assert results == ["item0", "item1", "item2", "item3"]


def test_reduce():
    group = CollectiveGroup(3)
    results = run_ranks(group, lambda r: group.reduce(r, np.full(2, r + 1.0), dst=0, op="sum"))
    assert np.allclose(results[0], 6.0)
    assert results[1] is None


def test_sim_time_accounting(rng):
    clock = SimClock()
    net = NetworkModel(latency_s=1e-3, bandwidth_bps=1e6)
    group = CollectiveGroup(4, net, clock)
    data = [rng.standard_normal(1000).astype(np.float32) for _ in range(4)]
    run_ranks(group, lambda r: group.allreduce(r, data[r], "sum"))
    # ring allreduce: 2*(n-1) steps of ~1/n chunk each
    chunk_bytes = int(np.ceil(1000 / 4)) * 4
    expected = 2 * 3 * net.transfer_time(chunk_bytes)
    assert clock.read("allreduce") == pytest.approx(expected, rel=1e-6)


def test_bytes_accounting(rng):
    group = CollectiveGroup(4)
    data = [rng.standard_normal(100).astype(np.float32) for _ in range(4)]
    run_ranks(group, lambda r: group.allreduce(r, data[r], "sum"))
    sent = group.bytes_sent_by(0)
    # each rank sends 2*(n-1) chunks of ~100/4 floats
    assert sent == pytest.approx(2 * 3 * 25 * 4, rel=0.1)


def test_barrier_timeout():
    group = CollectiveGroup(2)
    with pytest.raises(threading.BrokenBarrierError):
        group.barrier(timeout=0.1)  # only one arrival


@settings(max_examples=20, deadline=None)
@given(
    world=st.integers(2, 5),
    size=st.integers(1, 64),
    seed=st.integers(0, 999),
)
def test_allreduce_equals_numpy_sum_property(world, size, seed):
    rng = np.random.default_rng(seed)
    group = CollectiveGroup(world)
    data = [rng.standard_normal(size).astype(np.float32) for _ in range(world)]
    results = run_ranks(group, lambda r: group.allreduce(r, data[r], "sum"))
    expected = np.sum(data, axis=0)
    for out in results:
        assert np.allclose(out, expected, atol=1e-4)


# ---------------------------------------------------- accounting is pinned
def _codec_entry(rank, k=37, n=370):
    """What ``gather_states`` moves for one top-k compressed upload."""
    rng = np.random.default_rng(rank)
    return {
        "rank": rank,
        "state": {
            "steps": np.asarray(5, dtype=np.int64),
            "__czip__.indices": rng.choice(n, size=k, replace=False).astype(np.uint32),
            "__czip__.values": rng.standard_normal(k).astype(np.float32),
        },
        "meta": {"num_samples": 8, "compressed": True, "delta_coded": True,
                 "comp_meta": {"n": n, "k": k}, "original_bytes": 4 * n,
                 "spec": [["w", [10, 36], "float32"], ["b", [10], "float32"]]},
    }


def test_broadcast_and_gather_accounting_is_pinned():
    """Bytes per rank and simulated seconds of a 4-rank exchange, to the last
    bit, as measured at the commit before ``broadcast`` stopped sizing the
    payload on ranks that never use the number: whoever sizes it, every
    accounted byte and second stays."""
    clock = SimClock()
    group = CollectiveGroup(4, NetworkModel.from_preset("hpc_interconnect"), clock)
    payload = {"w": np.zeros((10, 36), np.float32), "b": np.zeros(10, np.float32),
               "steps": np.asarray(5)}
    run_ranks(group, lambda r: group.broadcast(r, payload if r == 0 else None, src=0))
    gathered = run_ranks(group, lambda r: group.gather(r, _codec_entry(r), dst=0))
    assert [e["rank"] for e in gathered[0]] == [0, 1, 2, 3]
    results = run_ranks(group, lambda r: group.broadcast(r, payload if r == 2 else None, src=2))
    assert all(res is payload for res in results)
    run_ranks(group, lambda r: group.gather(r, _codec_entry(r), dst=1))
    assert [group.bytes_sent_by(r) for r in range(4)] == [3784, 712, 4496, 1424]
    assert clock.snapshot() == {"broadcast": 8.030719999999999e-06, "gather": 6.01068e-06}
    assert clock.total == 1.4041399999999999e-05
