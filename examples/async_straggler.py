#!/usr/bin/env python3
"""Execution policies under stragglers: sync vs. semi-sync vs. async.

The same federation (4 clients, FedAvg on the blobs task, one seed) runs
under four execution policies against an identical lognormal latency model:

* ``sync``       — barrier per round; every round pays the slowest client;
* ``semi_sync``  — deadline rounds; stragglers carry over with a staleness
                   discount;
* ``fedasync``   — merge every arrival immediately, staleness-weighted;
* ``fedbuff``    — buffer K staleness-discounted deltas per flush.

Latency is *virtual* (no sleeping): the scheduler advances a simulated
clock, so the printed makespans are what a real WAN deployment would see,
reproduced in milliseconds of laptop time.  Each arm is one
:class:`ExperimentSpec` differing only in its ``scheduler`` field; naming
a scheduler is what selects the async runtime.

Run:  python examples/async_straggler.py
"""

import os

from repro import DataSpec, Experiment, ExperimentSpec, SchedulerSpec, TrainSpec

SMOKE = bool(int(os.environ.get("EXAMPLES_SMOKE", "0")))

HETERO = {"latency": "lognormal", "mean": 1.0, "sigma": 1.0}

POLICIES = {
    "sync": SchedulerSpec(name="sync", kwargs={"heterogeneity": HETERO}),
    "semi_sync": SchedulerSpec(name="semi_sync", kwargs={"deadline": 1.0, "heterogeneity": HETERO}),
    "fedasync": SchedulerSpec(name="fedasync", kwargs={"alpha": 0.6, "heterogeneity": HETERO}),
    "fedbuff": SchedulerSpec(name="fedbuff", kwargs={"buffer_size": 4, "heterogeneity": HETERO}),
}

TOTAL_UPDATES = 12 if SMOKE else 24
TRAIN_SIZE = 256 if SMOKE else 512


def run(mode: str, port: int):
    spec = ExperimentSpec(
        topology="centralized",
        topology_kwargs={
            "num_clients": 4,
            "inner_comm": {"backend": "torchdist", "master_port": port},
        },
        data=DataSpec(dataset="blobs", kwargs={"train_size": TRAIN_SIZE, "test_size": 128}),
        train=TrainSpec(
            algorithm="fedavg",
            algorithm_kwargs={"lr": 0.05, "local_epochs": 1},
            model="mlp",
            global_rounds=TOTAL_UPDATES // 4,
        ),
        scheduler=POLICIES[mode],
        total_updates=TOTAL_UPDATES,
        seed=0,
    )
    return Experiment(spec).run()


def main() -> None:
    print(f"{'policy':>10} {'sim makespan':>13} {'aggregations':>13} "
          f"{'mean staleness':>15} {'final acc':>10}")
    baseline = None
    for i, mode in enumerate(POLICIES):
        result = run(mode, 51000 + 50 * i)
        span = result.sim_makespan()
        if baseline is None:
            baseline = span
        staleness = sum(r.staleness_mean * r.applied for r in result.history)
        staleness /= max(1, result.total_applied())
        speedup = f"({baseline / span:.2f}x vs sync)" if span else ""
        print(f"{mode:>10} {span:>10.2f}s {speedup:<14} {len(result.history):>6} "
              f"{staleness:>15.2f} {result.final_accuracy():>10.3f}")


if __name__ == "__main__":
    main()
