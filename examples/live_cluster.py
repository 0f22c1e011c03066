#!/usr/bin/env python3
"""``tcp://`` runtime: one engine, N real worker processes, one kill.

The same :class:`ExperimentSpec` that runs in-process switches to real
processes by naming a ``tcp://`` broker: the engine then hosts the turn
queue's server itself, and workers dial it.  This script plays both roles
on localhost:

1. builds the spec (``broker: tcp://127.0.0.1:0?hb=…&lease=…``);
2. starts the run — the broker binds its server when the engine is built,
   and queued turns wait for the first worker;
3. spawns ``--nodes`` ``python -m repro worker tcp://...`` subprocesses that
   rebuild the trainer from the published spec and pull turns;
4. optionally SIGKILLs the worker holding a turn (``--kill``) to show a
   requeue: the dead worker's lease goes unrenewed for longer than the
   lease, its turns go back on the queue and a survivor reruns them from
   the client's stored state — so the run still matches a ``memory://``
   run of the same spec record for record.

Run:  python examples/live_cluster.py [--nodes 3] [--updates 24] [--kill]

In a real deployment you skip step 3: start the engine with
``python -m repro broker='tcp://:<password>@0.0.0.0:7070' scheduler=fedasync``
on one machine and ``python -m repro worker tcp://:<password>@host:7070`` on
the others.
"""

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.experiment import Experiment, ExperimentSpec
from repro.runtime.resp import RespClient


def make_spec(nodes: int, updates: int) -> ExperimentSpec:
    return ExperimentSpec(
        topology="centralized",
        num_clients=2 * nodes,
        # ephemeral port (printed below); a turn unrenewed for 1.5 s is requeued
        broker="tcp://127.0.0.1:0?hb=0.2&lease=1.5",
        data={"dataset": "blobs",
              "kwargs": {"train_size": 512, "test_size": 128},
              "batch_size": 32},
        train={"algorithm": "fedavg", "model": "mlp", "global_rounds": 2},
        scheduler="fedasync",
        total_updates=updates,
        seed=0,
    )


def spawn_worker(url: str) -> subprocess.Popen:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.setdefault("REPRO_WORKER_TURN_DELAY", "0.2")  # visible kill window
    return subprocess.Popen([sys.executable, "-m", "repro", "worker", url],
                            env=env, cwd=root)


def leaseholder(conn: RespClient, broker, pids, running) -> int:
    """Wait for one of ``pids`` to claim a turn while ``running()``; returns
    its pid.  Only a lease that appeared since the last look counts: its
    worker is still in its turn delay, so the kill lands before the commit."""
    seen = set(conn.hgetall(broker.cfg.key("leases")))
    while running():
        time.sleep(0.01)
        leases = conn.hgetall(broker.cfg.key("leases"))
        for turn, raw in leases.items():
            pid = int(json.loads(raw)["worker"].rpartition("-")[2])
            if turn not in seen and pid in pids:
                return pid
        seen.update(leases)
    raise RuntimeError("the run ended before a worker claimed another turn")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--updates", type=int, default=24)
    parser.add_argument("--kill", action="store_true",
                        help="SIGKILL one worker mid-turn to show a requeue")
    args = parser.parse_args()

    spec = make_spec(args.nodes, args.updates)
    experiment = Experiment(spec)
    outcome = {}

    def run():
        outcome["result"] = experiment.run()

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    while experiment.engine is None or experiment.engine.pool is None:
        time.sleep(0.05)
    broker = experiment.engine.pool.broker
    print(f"engine: {broker.url}  (join with `python -m repro worker {broker.url}`)")

    procs = [spawn_worker(broker.url) for _ in range(args.nodes)]
    if args.kill:
        while len(experiment.engine.metrics.history) < 3:
            time.sleep(0.05)
        with RespClient(broker.cfg.host, broker.cfg.port) as conn:
            victim = leaseholder(conn, broker, {p.pid for p in procs}, runner.is_alive)
        print(f"\n*** SIGKILL worker pid={victim} mid-turn ***\n")
        os.kill(victim, signal.SIGKILL)

    runner.join()
    result = outcome["result"]
    for proc in procs:
        if proc.poll() is None:
            proc.wait(timeout=30)

    print(result.table())
    print("summary:", result.summary())
    requeues = broker.describe()["requeues"]
    print(f"\nturns requeued after a lost lease: {requeues}")
    memory = Experiment(dataclasses.replace(spec, broker="memory://", pool_size=2)).run()
    same = [r.train_loss for r in result.history] == [r.train_loss for r in memory.history]
    print(f"records equal a memory:// run of the same spec: {same}")
    assert same and len(result.history) == args.updates
    if args.kill:
        assert requeues >= 1, requeues
        print("the killed worker's turns were rerun by a survivor from the "
              "clients' stored state")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
