"""End-to-end live runs over the in-proc transport.

Real :class:`~repro.runtime.worker.Worker` instances (threads instead of
processes — the protocol path is identical minus the kernel) join the
engine's ``inproc://`` broker, the experiment runs to completion on the
scheduler runtime behind the ordinary client pool, and members leave
gracefully at shutdown.
"""

import threading
import time

import pytest

from repro.cluster.protocol import parse_cluster_url
from repro.conf import builtin_store
from repro.config import compose
from repro.experiment import Experiment, ExperimentSpec
from repro.runtime.worker import Worker


def make_live_spec(bind, min_nodes=2, scheduler="fedasync", total_updates=6,
                   num_clients=4, extra=""):
    overrides = [
        f"broker=inproc://{bind}?min_nodes={min_nodes}&hb=0.1&lease=1.0{extra}",
        f"num_clients={num_clients}",
        "model=mlp", "datamodule=blobs",
    ]
    if scheduler is not None:
        overrides.append(f"scheduler={scheduler}")
    if total_updates is not None:
        overrides.append(f"+total_updates={total_updates}")
    cfg = compose(builtin_store(), "experiment", overrides=overrides)
    return ExperimentSpec.from_config(cfg)


def run_live(spec, worker_ids, callbacks=(), timeout=60):
    """Run the experiment with in-thread workers; returns (result, exp, workers)."""
    exp = Experiment(spec, callbacks=list(callbacks))
    box = {}

    def run_exp():
        try:
            box["result"] = exp.run()
        except BaseException as exc:  # noqa: BLE001 - surfaced in the test
            box["error"] = exc

    runner = threading.Thread(target=run_exp, daemon=True)
    runner.start()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if exp.engine is not None and exp.engine.pool is not None:
            break
        time.sleep(0.02)
    else:
        raise AssertionError("live broker never came up")
    # the broker bound its address when the engine was built
    url = exp.engine.pool.broker.url
    workers = [Worker(url, worker_id=wid) for wid in worker_ids]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for t in threads:
        t.start()
    runner.join(timeout=timeout)
    assert not runner.is_alive(), "live run hung"
    if "error" in box:
        raise box["error"]
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive(), "worker thread failed to exit"
    return box["result"], exp, workers


def test_parse_cluster_url():
    cfg = parse_cluster_url("tcp://10.0.0.1:7070")
    assert (cfg.kind, cfg.address) == ("tcp", "10.0.0.1:7070")
    cfg = parse_cluster_url("inproc://x?min_nodes=3&join=5&hb=0.25&lease=2")
    assert (cfg.kind, cfg.address) == ("inproc", "x")
    assert (cfg.min_nodes, cfg.join_timeout, cfg.heartbeat, cfg.lease) == (3, 5.0, 0.25, 2.0)
    for bad in ("http://x", "tcp://", "tcp://hostonly", "justtext",
                "tcp://h:1?min_node=3", "tcp://h:1?min_nodes=many",
                "tcp://h:1?detector=phi", "tcp://h:1?phi=6"):
        with pytest.raises(ValueError):
            parse_cluster_url(bad)


def test_live_run_completes_across_members():
    spec = make_live_spec("live-e2e", min_nodes=2)
    result, exp, workers = run_live(spec, ["n1", "n2"])
    assert result.mode == "async"
    assert len(result.history) == 6
    assert result.final_accuracy() is not None
    # the run went through the one pooled runtime, flagged live by its broker
    pool = exp.engine.pool
    assert pool.live and pool.pooled and pool.turns_run > 0
    assert not hasattr(exp.engine, "cluster")
    # work actually spread across real members, none of which lost the engine
    assert sum(w.turns_run for w in workers) > 0
    assert not any(w.lost for w in workers)
    # both members deregistered gracefully at shutdown
    assert pool.broker.membership.counts() == {"alive": 0, "left": 2, "evicted": 0}


def test_live_run_single_member_default_policy():
    # a live broker with no scheduler named: auto falls back to the
    # topology's default async policy, same as any pooled execution
    spec = make_live_spec("live-one", min_nodes=1, scheduler=None,
                          total_updates=4, num_clients=2)
    result, exp, workers = run_live(spec, ["solo"])
    assert result.mode == "async"
    assert len(result.history) == 4
    assert workers[0].turns_run > 0


def test_live_clients_tracks_membership_during_run():
    spec = make_live_spec("live-view", min_nodes=2)
    result, exp, _ = run_live(spec, ["a", "b"])
    runtime = exp.engine.client_runtime()
    # after shutdown everyone left, so the live view is empty while the
    # full logical cohort is still enumerable
    assert runtime.client_ids() == [0, 1, 2, 3]
    assert runtime.live_clients() == []
    with pytest.raises(RuntimeError, match="no live cluster members"):
        runtime.evaluate_all()


def test_quorum_timeout_fails_loudly():
    spec = make_live_spec("live-nobody", min_nodes=1, extra="&join=0.3")
    exp = Experiment(spec)
    with pytest.raises(TimeoutError, match="quorum not reached"):
        exp.run()


def test_telemetry_binds_cluster_gauges():
    from repro.telemetry import Telemetry
    from repro.telemetry.registry import MetricsRegistry
    from repro.telemetry.runs import RunRegistry

    registry = MetricsRegistry()
    tel = Telemetry(trace=False, registry=registry, runs=RunRegistry())
    spec = make_live_spec("live-metrics", min_nodes=2)
    run_live(spec, ["m0", "m1"], callbacks=[tel])
    text = registry.exposition()
    assert "repro_cluster_joins_total 2" in text
    assert 'repro_cluster_members{state="left"} 2' in text
    assert "repro_cluster_live_clients 0" in text
    # the pool gauges every broker feeds now cover live runs too
    assert "repro_pool_turns_run" in text
