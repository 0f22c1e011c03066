"""Live cluster smoke: 3 real worker processes over TCP, kill one mid-run.

The CI ``live-smoke`` job runs exactly this module.  The engine runs in
this process (an ordinary ``Experiment`` with ``broker: tcp://…``); three
``python -m repro worker tcp://…`` subprocesses dial in over localhost TCP;
one is SIGKILLed mid-run.  The run must still complete every update, the
dead peer must be evicted within the lease window with selection no longer
picking its clients, and the eviction must be visible on the live
``/metrics`` endpoint.
"""

import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

from repro.conf import builtin_store
from repro.config import compose
from repro.experiment import Experiment, ExperimentSpec
from repro.telemetry import Telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.runs import RunRegistry

TOTAL_UPDATES = 24
NUM_NODES = 3


def make_spec():
    cfg = compose(builtin_store(), "experiment", overrides=[
        f"broker=tcp://127.0.0.1:0?min_nodes={NUM_NODES}&hb=0.1&lease=0.8&join=120",
        "scheduler=fedasync",
        "num_clients=6",
        f"+total_updates={TOTAL_UPDATES}",
        "model=mlp", "datamodule=blobs",
    ])
    return ExperimentSpec.from_config(cfg)


def spawn_node(url, node_id, repo_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src")
    env["REPRO_WORKER_TURN_DELAY"] = "0.2"  # widen the kill window
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", url],
        env=env, cwd=repo_root,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def test_live_cluster_survives_node_kill():
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    registry = MetricsRegistry()
    tel = Telemetry(trace=False, serve=True, port=0,
                    registry=registry, runs=RunRegistry())
    experiment = Experiment(make_spec(), callbacks=[tel])
    outcome = {}

    def run():
        try:
            outcome["result"] = experiment.run()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()

    # the broker binds before quorum, so its URL is dialable early
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        engine = experiment.engine
        if engine is not None and engine.pool is not None:
            break
        time.sleep(0.05)
    else:
        raise AssertionError("live broker never came up")
    cluster = experiment.engine.pool.broker
    url = cluster.url
    assert url.startswith("tcp://127.0.0.1:") and not url.endswith(":0")

    procs = [spawn_node(url, f"node-{i}", repo_root) for i in range(NUM_NODES)]
    victim = procs[0]
    try:
        # wait for full quorum, then for the run to actually make progress
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if (cluster.membership.counts()["alive"] == NUM_NODES
                    and len(experiment.engine.metrics.history) >= 2):
                break
            time.sleep(0.05)
        else:
            raise AssertionError(
                f"run never got going: membership={cluster.membership.counts()}, "
                f"records={len(experiment.engine.metrics.history)}"
            )
        assert len(cluster.membership.live_clients()) == 6

        # hard-kill one member mid-run: no leave, no final heartbeat
        os.kill(victim.pid, signal.SIGKILL)
        killed_at = time.monotonic()

        # eviction must land within the lease window (plus sweep slack)
        deadline = killed_at + 10
        while time.monotonic() < deadline:
            if cluster.membership.counts()["evicted"] == 1:
                break
            time.sleep(0.02)
        assert cluster.membership.counts()["evicted"] == 1, (
            f"dead peer not evicted: {cluster.membership.describe()}"
        )
        # selection stops picking the dead member's clients: the live view
        # shrank to the survivors' pins
        live = cluster.membership.live_clients()
        assert len(live) == 4
        dead = [m for m in cluster.membership.describe() if m["state"] == "evicted"]
        assert dead[0]["clients"] == []  # its clients were orphaned

        # the eviction is visible on the live ops endpoint while the run is
        # still in flight (on_shutdown tears the server down with the run)
        assert tel.server is not None, "ops endpoint never started"
        metrics_text = urllib.request.urlopen(
            tel.server.url + "/metrics", timeout=10
        ).read().decode("utf8")
        assert 'repro_cluster_members{state="evicted"} 1' in metrics_text
        assert "repro_cluster_evictions_total 1" in metrics_text
        assert "repro_cluster_joins_total 3" in metrics_text

        runner.join(timeout=180)
        assert not runner.is_alive(), "live run stalled after the kill"
        assert "error" not in outcome, f"run failed: {outcome.get('error')!r}"
        result = outcome["result"]
        assert result.mode == "async"
        assert len(result.history) == TOTAL_UPDATES

        # the victim died by signal; the survivors left gracefully (exit 0)
        assert victim.wait(timeout=10) == -signal.SIGKILL
        for proc in procs[1:]:
            assert proc.wait(timeout=30) == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        if tel.server is not None:
            tel.server.stop()
