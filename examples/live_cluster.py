#!/usr/bin/env python3
"""Live cluster runtime: one engine, N real worker processes, one kill.

The same :class:`ExperimentSpec` that runs simulated switches to real
processes by naming a ``tcp://`` broker.  This script plays both roles on
localhost:

1. builds a live spec (``broker: tcp://127.0.0.1:0?min_nodes=N&…``);
2. starts the run — the broker binds when the engine is built and the run
   waits for the joining quorum;
3. spawns ``--nodes`` ``python -m repro worker tcp://...`` subprocesses that
   join, rebuild the trainer from the published spec, and serve turns;
4. optionally SIGKILLs one worker mid-run (``--kill``) to demonstrate
   lease eviction: the dead member falls silent for longer than the lease
   and is evicted, its clients
   orphan out of the selection set, and the run still completes.

Run:  python examples/live_cluster.py [--nodes 3] [--updates 24] [--kill]

In a real deployment you skip step 3: start the engine with
``python -m repro broker='tcp://0.0.0.0:7070?min_nodes=3' scheduler=fedasync``
on one machine and ``python -m repro worker tcp://host:7070`` on the others.
"""

import argparse
import os
import signal
import subprocess
import sys
import threading
import time

from repro.experiment import Experiment, ExperimentSpec


def make_spec(nodes: int, updates: int) -> ExperimentSpec:
    return ExperimentSpec(
        topology="centralized",
        num_clients=2 * nodes,
        # ephemeral port (printed below); a member silent for 1.5 s is evicted
        broker=f"tcp://127.0.0.1:0?min_nodes={nodes}&hb=0.2&lease=1.5",
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
    env.setdefault("REPRO_WORKER_TURN_DELAY", "0.1")  # visible kill window
    return subprocess.Popen([sys.executable, "-m", "repro", "worker", url],
                            env=env, cwd=root)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--updates", type=int, default=24)
    parser.add_argument("--kill", action="store_true",
                        help="SIGKILL one worker mid-run to show eviction")
    args = parser.parse_args()

    experiment = Experiment(make_spec(args.nodes, args.updates))
    outcome = {}

    def run():
        outcome["result"] = experiment.run()

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    while experiment.engine is None or experiment.engine.pool is None:
        time.sleep(0.05)
    cluster = experiment.engine.pool.broker
    print(f"engine: {cluster.url}  (join with `python -m repro worker {cluster.url}`)")

    procs = [spawn_worker(cluster.url) for _ in range(args.nodes)]
    if args.kill:
        while cluster.membership.counts()["alive"] < args.nodes:
            time.sleep(0.05)
        while len(experiment.engine.metrics.history) < 3:
            time.sleep(0.05)
        victim = procs[0]
        print(f"\n*** SIGKILL worker pid={victim.pid} mid-run ***\n")
        os.kill(victim.pid, signal.SIGKILL)

    runner.join()
    result = outcome["result"]
    for proc in procs:
        if proc.poll() is None:
            proc.wait(timeout=30)

    print(result.table())
    print("summary:", result.summary())
    print("\nmembership at shutdown:")
    for row in cluster.membership.describe():
        print(f"  {row['node_id']:24s} {row['state']:8s} "
              f"beats={row['heartbeats']:4d} clients={row['clients']}")
    counts = cluster.membership.counts()
    if args.kill:
        assert counts["evicted"] == 1, counts
        print("\nthe killed worker was evicted; its clients orphaned out of "
              "selection and the run completed on the survivors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
