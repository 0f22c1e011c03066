"""The packed metrics history: every record kind and edge value reads back
as it was appended, through every sequence operation and a save/load."""

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest

from repro.engine.metrics import MetricsCollector, NodeStats, RecordLog, RoundRecord
from repro.experiment import ExperimentSpec, RunResult

FIELDS = [f.name for f in dataclasses.fields(RoundRecord)]


def _bits(value):
    """A value's exact identity: its type, and for a float its bytes."""
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), value


def assert_same(got, want):
    """``got`` is a fresh record whose every field has ``want``'s type and
    bits (a shared breakdown map is the very same object)."""
    assert got is not want
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if name in ("per_edge", "per_node"):
            assert a is b, name
        else:
            assert _bits(a) == _bits(b), (name, a, b)
    got_payload, want_payload = got.to_payload(), want.to_payload()
    assert got_payload.keys() == want_payload.keys()
    for key, value in want_payload.items():
        assert _bits(got_payload[key]) == _bits(value), key


def kinds():
    """One record of each kind a run produces."""
    interned = {}
    return {
        "async": RoundRecord(round_idx=7, train_loss=0.25, train_accuracy=0.5, wall_seconds=1.5e-4,
                             sim_time=3.25, applied=1, staleness_mean=2.0),
        "async_eval": RoundRecord(round_idx=8, train_loss=0.2, train_accuracy=0.625, eval_accuracy=0.75,
                                  eval_loss=0.875, wall_seconds=2e-4, sim_time=3.5, applied=1),
        "site": RoundRecord(round_idx=0, train_loss=1.0, train_accuracy=0.25, sim_time=0.75,
                            applied=3, staleness_mean=0.5, tier="site"),
        "hier_outer": RoundRecord(round_idx=2, applied=6, sites_merged=2, per_node={
            "site0": {"samples": 8.0, "loss": 0.5, "applied": 3.0},
            "site1": {"samples": 8.0, "loss": 0.25, "applied": 3.0},
        }),
        "gossip": RoundRecord(round_idx=4, bytes_sent=42, consensus_dist=0.125, sim_time=1.0,
                              applied=1, per_edge={"0->1": 30, "1->0": 12}),
        "rounds": RoundRecord(round_idx=1, train_loss=0.5, wall_seconds=0.02, sim_comm_seconds=0.003,
                              bytes_sent=9000, eval_accuracy=0.5, eval_loss=1.25, per_node={
                                  "n0": NodeStats({"loss": 0.5, "participated": True}, interned),
                                  "n1": NodeStats({"loss": 0.75, "participated": False}, interned),
                              }),
    }


@pytest.mark.parametrize("kind", sorted(kinds()))
def test_every_record_kind_reads_back_bit_for_bit(kind):
    rec = kinds()[kind]
    log = RecordLog()
    log.append(RoundRecord(round_idx=0))  # not the first row: offsets matter
    log.append(rec)
    assert_same(log[1], rec)
    assert log[1] == rec and log[1].as_dict() == rec.as_dict()
    assert RoundRecord.from_payload(log[1].to_payload()).to_payload() == rec.to_payload()


def test_a_run_of_mixed_records_reads_back_in_order():
    records = list(kinds().values()) * 50  # 300 rows: past the first storage chunk
    log = RecordLog()
    for rec in records:
        log.append(rec)
    for got, want in zip(log, records, strict=True):
        assert_same(got, want)
    assert [r.round_idx for r in reversed(log)] == [r.round_idx for r in reversed(records)]
    assert log[250:262] == records[250:262] and log.column("applied") == [r.applied for r in records]


@pytest.mark.parametrize("field, value", [
    ("train_loss", math.nan),
    ("train_loss", struct.unpack("<d", bytes.fromhex("0100000000f8ff7f"))[0]),  # a NaN payload
    ("train_accuracy", -0.0),
    ("sim_time", math.inf),
    ("staleness_mean", 5e-324),
    ("bytes_sent", 2**62 + 1),
    ("bytes_sent", -(2**63)),
    ("round_idx", 2**63 - 1),
    ("applied", 2**31 - 1),
])
def test_edge_values_keep_their_bits(field, value):
    rec = RoundRecord(**{"round_idx": 3, field: value})
    log = RecordLog()
    log.append(rec)
    assert_same(log[0], rec)
    assert _bits(log.column(field)[0]) == _bits(value)


@pytest.mark.parametrize("field, value", [
    ("bytes_sent", 2**64),       # beyond its column's range
    ("applied", 2**31),          # beyond a 32-bit column
    ("sim_comm_seconds", 0),     # an int in a float field stays an int
    ("train_loss", True),        # so does a bool
    ("applied", True),
    ("sites_merged", 1.5),       # a float in an int field stays a float
    ("train_loss", np.float64(0.1)),  # numpy scalars stay numpy scalars
    ("train_accuracy", np.float32(0.5)),
    ("bytes_sent", np.int64(77)),
])
def test_values_a_row_cannot_hold_read_back_verbatim(field, value):
    rec = RoundRecord(**{"round_idx": 5, "train_loss": 0.5, "tier": "site", field: value})
    log = RecordLog()
    log.append(RoundRecord(round_idx=4))
    log.append(rec)
    log.append(RoundRecord(round_idx=6))
    got = log[1]
    assert_same(got, rec)
    assert got.tier == "site"
    assert _bits(log.column(field)[1]) == _bits(value)
    assert [(r.round_idx, r.tier) for r in log] == [(4, "global"), (5, "site"), (6, "global")]


def test_sequence_operations_read_like_the_list_they_replace():
    records = [RoundRecord(round_idx=i, train_loss=i / 8, sim_time=float(i), applied=1) for i in range(6)]
    log = RecordLog()
    assert not log and len(log) == 0 and list(log) == [] and list(reversed(log)) == []
    with pytest.raises(IndexError):
        log[0]
    for rec in records:
        log.append(rec)
    assert log and len(log) == 6
    assert log[0] == records[0] and log[-1] == records[-1] and log[-6] == records[0]
    assert log[np.int64(2)] == records[2]
    for bad in (6, -7):
        with pytest.raises(IndexError):
            log[bad]
    with pytest.raises(TypeError):
        log[1.0]
    for sl in (slice(None), slice(2, None), slice(-3, None), slice(1, 5, 2), slice(None, None, -1),
               slice(4, 1, -1), slice(7, 9), slice(3, 3)):
        assert log[sl] == records[sl], sl
    assert list(log) == records and list(reversed(log)) == records[::-1]
    assert records[3] in log and RoundRecord(round_idx=99) not in log
    assert log.index(records[4]) == 4 and log.count(records[1]) == 1
    assert log.column("sim_time") == [r.sim_time for r in records]
    assert log.column("eval_accuracy") == [None] * 6 and log.column("per_node") == [{}] * 6
    # iterating sees what is appended meanwhile, like a list's iterator
    seen = []
    for rec in log:
        seen.append(rec.round_idx)
        if len(log) < 8:
            log.append(RoundRecord(round_idx=len(log)))
    assert seen == list(range(8))
    assert repr(log) == "RecordLog(8 records)"


def test_a_read_record_is_a_copy_and_the_log_pickles():
    log = RecordLog()
    log.append(RoundRecord(round_idx=0, train_loss=0.5, per_edge={"0->1": 3}))
    log[0].train_loss = 9.0
    assert log[0].train_loss == 0.5
    back = pickle.loads(pickle.dumps(log))
    assert list(back) == list(log) and back[0].per_edge == {"0->1": 3}


def test_evaluate_last_is_the_one_write_after_add():
    calls = []

    def evaluate():
        calls.append(1)
        return 0.5, 0.875

    metrics = MetricsCollector()
    metrics.evaluate_last(evaluate)  # an empty history has nothing to evaluate
    assert calls == [] and len(metrics.history) == 0
    metrics.add(RoundRecord(round_idx=0, eval_accuracy=0.25, eval_loss=2.0))
    metrics.add(RoundRecord(round_idx=1, train_loss=1.0))
    metrics.evaluate_last(evaluate)
    assert calls == [1]
    last = metrics.history[-1]
    assert (last.eval_loss, last.eval_accuracy, last.train_loss) == (0.5, 0.875, 1.0)
    assert metrics.history[0].eval_accuracy == 0.25
    assert metrics.final_accuracy() == 0.875 and metrics.best_accuracy() == 0.875
    metrics.evaluate_last(evaluate)  # already evaluated: not again
    assert calls == [1]


def test_summaries_read_the_columns():
    metrics = MetricsCollector()
    for i, (secs, sent) in enumerate([(1.0, 100), (5.0, 2**40), (2.0, 7)]):
        metrics.add(RoundRecord(round_idx=i, wall_seconds=secs, bytes_sent=sent, applied=2,
                                sim_time=float(10 - i), sim_comm_seconds=0.5))
    metrics.add(RoundRecord(round_idx=3, wall_seconds=3.0, bytes_sent=2**64, applied=1))  # kept verbatim
    summary = metrics.summary()
    assert summary["total_bytes_sent"] == 100 + 2**40 + 7 + 2**64
    assert summary["applied_updates"] == 7 and summary["sim_makespan"] == 10.0
    assert summary["median_round_seconds"] == 2.5 and summary["total_sim_comm_seconds"] == 1.5
    assert summary["final_accuracy"] is None and summary["rounds"] == 4


def test_run_result_save_and_load_round_trip(tmp_path):
    metrics = MetricsCollector()
    records = [*kinds().values(), RoundRecord(round_idx=9, train_loss=0.125)]
    for rec in records:
        metrics.add(rec)
    metrics.evaluate_last(lambda: (0.5, 0.625))
    result = RunResult(spec=ExperimentSpec(), metrics=metrics)
    loaded = RunResult.load(result.save(str(tmp_path / "run")))
    assert isinstance(loaded.history, RecordLog) and len(loaded.history) == len(records)
    assert [r.to_payload() for r in loaded.history] == [r.to_payload() for r in result.history]
    assert loaded.history[-1].eval_accuracy == 0.625
    assert loaded.summary()["total_bytes_sent"] == result.summary()["total_bytes_sent"]
