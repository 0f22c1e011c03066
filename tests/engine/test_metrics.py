
import pickle

import numpy as np
import pytest

from repro.engine import Engine
from repro.engine.metrics import MetricsCollector, RecordLog, RoundRecord
from repro.experiment import ExperimentSpec


def record(i, acc=None, secs=1.0, loss=0.5, sent=100):
    return RoundRecord(round_idx=i, train_loss=loss, train_accuracy=0.8,
                       eval_accuracy=acc, wall_seconds=secs, bytes_sent=sent)


def test_final_and_best_accuracy():
    m = MetricsCollector()
    m.add(record(0, acc=0.5))
    m.add(record(1, acc=0.9))
    m.add(record(2, acc=0.7))
    assert m.final_accuracy() == 0.7
    assert m.best_accuracy() == 0.9


def test_final_accuracy_skips_uneval_rounds():
    m = MetricsCollector()
    m.add(record(0, acc=0.6))
    m.add(record(1, acc=None))
    assert m.final_accuracy() == 0.6


def test_empty_collector():
    m = MetricsCollector()
    assert m.final_accuracy() is None
    assert m.best_accuracy() is None
    assert m.median_round_time() == 0.0
    assert m.last is None


def test_median_round_time():
    m = MetricsCollector()
    for secs in (1.0, 5.0, 2.0):
        m.add(record(0, secs=secs))
    assert m.median_round_time() == 2.0


def test_totals_and_summary():
    m = MetricsCollector()
    m.add(record(0, acc=0.4, sent=100))
    m.add(record(1, acc=0.8, sent=200))
    assert m.total_bytes() == 300
    summary = m.summary()
    assert summary["rounds"] == 2
    assert summary["final_accuracy"] == 0.8


def test_table_renders_all_rounds():
    m = MetricsCollector()
    m.add(record(0, acc=0.5))
    m.add(record(1))
    table = m.table()
    assert len(table.splitlines()) == 3
    assert "0.5000" in table


def test_record_as_dict():
    rec = record(3, acc=0.66)
    d = rec.as_dict()
    assert d["round"] == 3 and d["eval_accuracy"] == 0.66


# ------------------------------------------------------------- slim records
def test_default_record_allocates_no_dict_of_its_own():
    """An async run keeps one record per applied update; none of them has a
    per-edge or per-node breakdown, so none should pay for two empty dicts
    (or for an instance ``__dict__``)."""
    a, b = RoundRecord(round_idx=0), RoundRecord(round_idx=1)
    assert not hasattr(a, "__dict__")
    assert a.per_edge is b.per_edge is a.per_node is b.per_node
    # reads like the empty dict it replaced ...
    assert len(a.per_node) == 0 and list(a.per_edge) == [] and dict(a.per_node) == {}
    assert list(a.per_node.items()) == [] and a.per_edge == {} and "x" not in a.per_edge
    # ... but a writer that does not assign its own dict fails at once,
    # instead of filling in every record
    with pytest.raises(TypeError):
        a.per_node["n0"] = {"loss": 1.0}
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert pickle.loads(pickle.dumps(a)) == a


def test_default_record_round_trips_through_payload():
    rec = RoundRecord(round_idx=4, train_loss=0.25, sim_time=3.5, applied=1, staleness_mean=2.0)
    payload = rec.to_payload()
    assert payload["per_node"] == {} and payload["per_edge"] == {}
    back = RoundRecord.from_payload(payload)
    assert back == rec
    assert back.per_node is rec.per_node and back.per_edge is rec.per_edge  # still shared


def test_filled_record_round_trips_through_payload():
    rec = RoundRecord(round_idx=2, bytes_sent=30)
    rec.per_node = {"n1": {"loss": np.float32(0.5), "participated": True}}
    rec.per_edge = {"0->1": np.int64(30)}
    payload = rec.to_payload()
    assert payload["per_node"] == {"n1": {"loss": 0.5, "participated": 1.0}}
    assert payload["per_edge"] == {"0->1": 30} and type(payload["per_edge"]["0->1"]) is int
    back = RoundRecord.from_payload(payload)
    assert back.per_node == payload["per_node"] and back.per_edge == payload["per_edge"]
    assert back.to_payload() == payload


_DATA = {"dataset": "blobs", "kwargs": {"train_size": 96, "test_size": 32, "seed": 0},
         "partition": "iid", "batch_size": 8}
_TRAIN = {"algorithm": "fedavg", "model": "mlp", "global_rounds": 2, "eval_every": 0,
          "algorithm_kwargs": {"lr": 0.05, "local_epochs": 1, "max_batches_per_epoch": 1}}


def _history(fresh_port, updates=None, **spec):
    inner = {"backend": "torchdist", "master_port": fresh_port}
    topo = dict(spec.pop("topology_kwargs", {}), inner_comm=inner)
    eng = Engine.from_spec(ExperimentSpec(data=_DATA, train=_TRAIN, seed=0, topology_kwargs=topo, **spec))
    try:
        if updates is None:
            eng.run()
        else:
            eng.run_async(total_updates=updates)
        return list(eng.metrics.history), eng
    finally:
        eng.shutdown()


def _assert_own_dicts(history, field):
    """Every record filled its own dict, and the payload carries it whole."""
    filled = [getattr(rec, field) for rec in history]
    assert all(type(d) is dict and d for d in filled)
    assert len({id(d) for d in filled}) == len(filled)
    for rec in history:
        assert RoundRecord.from_payload(rec.to_payload()).to_payload() == rec.to_payload()


def test_rounds_loop_still_fills_per_node(fresh_port):
    history, eng = _history(fresh_port, topology="centralized", num_clients=3)
    assert len(history) == 2
    _assert_own_dicts(history, "per_node")
    for rec in history:
        assert set(rec.per_node) == {n.name for n in eng.nodes}
        assert sum(1 for s in rec.per_node.values() if s.get("participated")) == 3
        assert len(rec.per_edge) == 0


def test_hierarchical_outer_tier_still_fills_per_node(fresh_port):
    outer = {"backend": "grpc", "master_port": fresh_port + 1000, "transport": "inproc"}
    history, eng = _history(
        fresh_port, updates=8, topology="hierarchical",
        topology_kwargs={"num_sites": 2, "clients_per_site": 2, "outer_comm": outer},
        scheduler={"name": "hier_async", "inner": "sync", "outer": "fedasync"},
    )
    _assert_own_dicts(history, "per_node")
    for rec in history:
        assert all(name.startswith("site") and "applied" in stats
                   for name, stats in rec.per_node.items())
        assert sum(s["applied"] for s in rec.per_node.values()) == rec.applied
    # site-tier records have no breakdown and share the empty one
    site_records = [r for m in eng.scheduler.site_metrics for r in m.history]
    assert site_records and all(r.per_node is history[0].per_edge for r in site_records)


def test_gossip_still_fills_per_edge(fresh_port):
    history, _ = _history(
        fresh_port, updates=8, topology="ring", topology_kwargs={"num_clients": 4},
        scheduler={"name": "gossip_async"},
    )
    assert sum(rec.bytes_sent for rec in history) > 0
    for rec in history:
        assert sum(rec.per_edge.values()) == rec.bytes_sent
        assert len(rec.per_node) == 0
    _assert_own_dicts([rec for rec in history if rec.bytes_sent], "per_edge")


# ------------------------------------------------- what a record leaves behind
def _retained_per_record(eng, run, records):
    """Bytes the history keeps per record for ``run()``'s ``records``
    records: what tracemalloc sees freed when that history is dropped (the
    engine is warmed up first, so nothing built lazily is counted)."""
    import gc
    import tracemalloc

    eng.metrics.history = RecordLog()
    tracemalloc.start()
    try:
        run()
        assert len(eng.metrics.history) == records
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        eng.metrics.history = RecordLog()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return freed / records


def test_rounds_history_retains_at_most_2200_bytes_per_round(fresh_port):
    """``metrics.history`` is never trimmed, so what one round adds to it is
    what a long run pays per round for ever: nine nodes' stats as dicts of
    boxed floats came to 3.5 KB by this measure; packed behind ``NodeStats``
    it was 2.2 KB, and with the record's own fields packed into a row of the
    log it is 2.0 KB."""
    rounds = 100
    outer = {"backend": "grpc", "master_port": fresh_port + 1000, "transport": "inproc"}
    inner = {"backend": "torchdist", "master_port": fresh_port}
    eng = Engine.from_spec(ExperimentSpec(
        data=_DATA, train=_TRAIN, seed=0, topology="hierarchical",
        topology_kwargs={"num_sites": 2, "clients_per_site": 3,
                         "inner_comm": inner, "outer_comm": outer},
        plugins={"compressor": "topk", "compressor_kwargs": {"ratio": 10}},
    ))
    try:
        eng.run(rounds=2)  # whatever is built lazily is built before measuring
        per_round = _retained_per_record(eng, lambda: eng.run(rounds=rounds), rounds)
        assert len(eng.metrics.history) == 0
    finally:
        eng.shutdown()
    assert 0 < per_round <= 2200


def test_fedasync_history_retains_at_most_100_bytes_per_record():
    """A pooled fedasync run keeps one record per applied update: a packed
    row of the log, not a record object with boxed numbers (those came to
    386 B of RSS per record)."""
    clients, updates = 32, 1500
    eng = Engine.from_spec(ExperimentSpec(
        topology="centralized", num_clients=clients, pool_size=2, seed=0,
        data={**_DATA, "kwargs": {"train_size": 4 * clients, "test_size": 16, "seed": 0},
              "batch_size": 4},
        train={**_TRAIN, "algorithm": "fedavg"},
        scheduler={"name": "fedasync", "concurrency": 4},
    ))
    try:
        eng.run_async(total_updates=64)
        per_record = _retained_per_record(eng, lambda: eng.run_async(total_updates=updates), updates)
    finally:
        eng.shutdown()
    assert 0 < per_record <= 100


def test_rounds_loop_per_node_stats_still_read_like_dicts(fresh_port):
    history, eng = _history(fresh_port, topology="centralized", num_clients=3)
    rec = history[-1]
    trainer = next(n.name for n in eng.nodes if n.role.trains())
    stats = rec.per_node[trainer]
    plain = dict(stats)
    assert type(plain) is dict and plain and all(type(v) is float for v in plain.values())
    assert stats.get("participated") and stats.get("no_such_stat") is None
    assert stats.get("no_such_stat", 2.5) == 2.5
    assert "loss" in stats and "no_such_stat" not in stats
    with pytest.raises(KeyError):
        stats["no_such_stat"]
    assert stats["loss"] == plain["loss"] and len(stats) == len(plain)
    assert list(stats) == list(plain) and list(stats.items()) == list(plain.items())
    assert stats == plain and plain == stats and stats != {**plain, "loss": -1.0}
    assert rec.per_node == {name: dict(s) for name, s in rec.per_node.items()}
    with pytest.raises(TypeError):
        stats["loss"] = 0.0
    # the key tuple is stored once, however many rounds and nodes share it
    same_keys = [s for r in history for s in r.per_node.values() if list(s) == list(stats)]
    assert len(same_keys) >= 6 and len({id(s._keys) for s in same_keys}) == 1
    # through the payload and back, and through pickle
    payload = rec.to_payload()
    assert payload["per_node"] == {name: dict(s) for name, s in rec.per_node.items()}
    assert all(type(s) is dict for s in payload["per_node"].values())
    back = RoundRecord.from_payload(payload)
    assert back.per_node == rec.per_node and back.to_payload() == payload
    assert pickle.loads(pickle.dumps(rec)) == rec
