"""``tcp://`` smoke: 3 real worker processes, one SIGKILLed mid-turn.

The CI ``live-smoke`` job runs exactly this module.  The engine runs in
this process (an ordinary ``Experiment`` with ``broker: tcp://…``, which
hosts the turn queue's server itself); three ``python -m repro worker
tcp://…`` subprocesses dial in over localhost; the one holding a lease is
SIGKILLed.  Its lease runs out, its turns are requeued and rerun by a
survivor, and the run must end bit-identical to a ``memory://`` run of the
same spec — no client restarts from the baseline — with the requeue visible
on the live ``/metrics`` endpoint.
"""

import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np

from repro.conf import builtin_store
from repro.config import compose
from repro.experiment import Experiment, ExperimentSpec
from repro.runtime.resp import RespClient
from repro.telemetry import Telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.runs import RunRegistry

TOTAL_UPDATES = 36
NUM_WORKERS = 3


def make_spec():
    cfg = compose(builtin_store(), "experiment", overrides=[
        "broker=tcp://127.0.0.1:0?hb=0.1&lease=0.8",
        "scheduler=fedasync",
        "num_clients=6",
        f"+total_updates={TOTAL_UPDATES}",
        "model=mlp", "datamodule=blobs",
    ])
    return ExperimentSpec.from_config(cfg)


def spawn_worker(url, repo_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src")
    env["REPRO_WORKER_TURN_DELAY"] = "0.3"  # widen the kill window
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", url],
        env=env, cwd=repo_root,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def wait_until(predicate, what, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


def records_of(result):
    return [{k: v for k, v in r.as_dict().items() if k != "wall_seconds"}
            for r in result.history]


def test_tcp_run_survives_a_worker_kill_bit_for_bit():
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    spec = make_spec()
    memory = Experiment(dataclasses.replace(spec, broker="memory://", pool_size=2)).run()

    registry = MetricsRegistry()
    tel = Telemetry(trace=False, serve=True, port=0, registry=registry, runs=RunRegistry())
    experiment = Experiment(spec, callbacks=[tel])
    outcome = {}

    def run():
        try:
            outcome["result"] = experiment.run()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()

    # the broker binds its server when the engine is built, so its URL is
    # dialable before the run starts
    broker = wait_until(lambda: experiment.engine is not None and experiment.engine.pool
                        is not None and experiment.engine.pool.broker, "the tcp broker", 60)
    url = broker.url
    assert url.startswith("tcp://127.0.0.1:") and not url.endswith(":0")

    procs = [spawn_worker(url, repo_root) for _ in range(NUM_WORKERS)]
    conn = RespClient(broker.cfg.host, broker.cfg.port)
    seen = set()
    try:
        def leaseholder():
            """The pid of a worker process that claimed a turn since the last
            look (so it is still in its delay, far from its commit), once the
            run is going."""
            leases = conn.hgetall(broker.cfg.key("leases"))
            fresh = [raw for turn, raw in leases.items() if turn not in seen]
            seen.update(leases)
            if len(experiment.engine.metrics.history) < 2:
                return None
            pids = {p.pid for p in procs}
            for raw in fresh:
                pid = int(json.loads(raw)["worker"].rpartition("-")[2])
                if pid in pids:
                    return pid
            return None

        victim_pid = wait_until(leaseholder, "a worker to hold a lease mid-run", 120)
        victim = next(p for p in procs if p.pid == victim_pid)
        # hard kill mid-turn: no commit, no deregistration, no final beat
        os.kill(victim_pid, signal.SIGKILL)

        # the lease runs out and the turn goes back on the queue
        wait_until(lambda: broker.describe()["requeues"] >= 1, "the requeue", 10)
        # ... which the ops endpoint shows while the run is still in flight
        # (on_shutdown tears the server down with the run)
        counter = registry.counter("repro_broker_requeues_total")
        wait_until(lambda: counter.value >= 1, "the requeue counter", 30)
        assert tel.server is not None, "ops endpoint never started"
        metrics_text = urllib.request.urlopen(
            tel.server.url + "/metrics", timeout=10
        ).read().decode("utf8")
        shown = re.search(r"^repro_broker_requeues_total (\S+)$", metrics_text, re.M)
        assert shown and float(shown.group(1)) >= 1, metrics_text

        runner.join(timeout=180)
        assert not runner.is_alive(), "tcp run stalled after the kill"
        assert "error" not in outcome, f"run failed: {outcome.get('error')!r}"
        result = outcome["result"]
        assert result.mode == "async"
        assert len(result.history) == TOTAL_UPDATES

        # the requeued turn reran against its client's stored state: the
        # run is the memory:// run, record for record and weight for weight
        assert records_of(result) == records_of(memory)
        assert set(result.final_state) == set(memory.final_state)
        for key, value in memory.final_state.items():
            np.testing.assert_array_equal(result.final_state[key], value, err_msg=key)

        # the victim died by signal; the survivors heard the stop (exit 0)
        assert victim.wait(timeout=10) == -signal.SIGKILL
        for proc in procs:
            if proc is not victim:
                assert proc.wait(timeout=30) == 0
    finally:
        conn.close()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        if tel.server is not None:
            tel.server.stop()
