"""Command-line entry point: config-driven experiments, the paper's workflow.

Usage::

    python -m repro                                    # default experiment
    python -m repro algorithm=fedprox +algorithm.mu=0.1
    python -m repro topology=hierarchical global_rounds=5
    python -m repro topology=hierarchical \
        '+outer_compression={_target_: repro.compression.TopK, ratio: 10}'
    python -m repro scheduler=fedasync                 # async execution policy
    python -m repro scheduler=fedbuff scheduler.buffer_size=8
    python -m repro topology=hierarchical scheduler=hier_async \
        scheduler.inner=fedbuff scheduler.outer=fedasync   # per-tier policies
    python -m repro topology=ring scheduler=gossip_async \
        scheduler.neighbor_selection=pairwise              # decentralized gossip
    python -m repro --print-config algorithm=moon      # dump the resolved spec
    python -m repro run my_spec.yaml                   # run a saved spec file
    python -m repro broker=redis://localhost:6379/0    # broker-backed pool
    python -m repro worker 'redis://host:6379/0?run=<ns>'  # turn-pulling worker
    python -m repro broker=tcp://:pw@0.0.0.0:7070 scheduler=fedasync  # engine-hosted queue
    python -m repro worker tcp://:pw@hostA:7070        # a worker dialling it
    python -m repro run my_spec.yaml --save runs/exp1  # archive the RunResult
    python -m repro --config-dir my_confs --config-name exp  algorithm=moon
    python -m repro --list                             # show config groups

Every positional argument is a Hydra-style override (``group=option``,
``key.path=value``, ``+new.key=value``, ``~key``).  ``run <spec.yaml>``
instead loads a typed :class:`~repro.experiment.ExperimentSpec` dumped by
``--print-config`` (or ``ExperimentSpec.save``) and executes it through
``Experiment.run()``.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - imported in main(), after worker dispatch
    from repro.experiment import Experiment, RunResult


def _print_result(experiment: Experiment, result: RunResult) -> None:
    engine = experiment.engine
    sched = engine.scheduler if engine is not None else None
    if result.mode == "async" and sched is not None:
        metrics = result.metrics
        tiers = ""
        if getattr(sched, "sites", None):
            tiers = (f", {len(sched.sites)} sites, "
                     f"inner={sched.inner} outer={sched.outer}")
        elif getattr(sched, "peers", None):
            last_dist = next(
                (r.consensus_dist for r in reversed(metrics.history)
                 if r.consensus_dist is not None),
                None,
            )
            tiers = (f", {len(sched.peers)} peers, "
                     f"{sched.neighbor_selection}/{sched.mixing} gossip")
            if last_dist is not None:
                tiers += f", consensus dist {last_dist:.4f}"
        print(f"scheduler: {sched.name} "
              f"(sim makespan {metrics.sim_makespan():.2f}s, "
              f"{metrics.total_applied()} updates applied{tiers})")
    print(result.table())
    print("summary:", result.summary())
    for group, stats in sorted(result.comm.items()):
        print(
            f"comm[{group}]: {int(stats['bytes_sent']):,d} bytes, "
            f"{stats['sim_seconds']:.4f}s simulated"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    parser.add_argument(
        "overrides", nargs="*",
        help="Hydra-style overrides (key=value); or `run <spec.yaml>` to "
             "execute a saved ExperimentSpec",
    )
    parser.add_argument("--config-dir", default=None, help="directory of config groups")
    parser.add_argument("--config-name", default="experiment", help="primary config name")
    parser.add_argument("--list", action="store_true", help="list available config groups")
    parser.add_argument("--dry-run", action="store_true", help="print the composed config and exit")
    parser.add_argument(
        "--print-config", action="store_true",
        help="print the resolved ExperimentSpec as YAML and exit "
             "(reusable via `python -m repro run <file>`)",
    )
    parser.add_argument(
        "--save", default=None, metavar="DIR",
        help="archive the RunResult (metrics, spec, final state) to DIR",
    )
    args = parser.parse_args(argv)

    if args.overrides and args.overrides[0] == "worker":
        # worker mode: `python -m repro worker <broker-url>` — serve client
        # turns for a running engine (a redis server's queue, or the one a
        # tcp:// engine hosts) until it says stop.  Dispatched before anything
        # below is imported: a worker loads only the turn loop.
        if len(args.overrides) != 2:
            parser.error("usage: python -m repro worker <broker-url>")
        from repro.runtime.worker import run_worker

        return run_worker(args.overrides[1])

    from repro.conf import builtin_store
    from repro.config import ConfigStore, compose, dumps
    from repro.experiment import Experiment, ExperimentSpec

    store = ConfigStore(args.config_dir) if args.config_dir else builtin_store()

    if args.list:
        for group in ["topology", "algorithm", "model", "datamodule", "scheduler",
                      "compression", "privacy"]:
            options = store.available(group)
            if options:
                print(f"{group:12s} {', '.join(options)}")
        return 0

    if args.overrides and args.overrides[0] == "run":
        # spec-file mode: `python -m repro run <spec.yaml>`
        if len(args.overrides) != 2:
            parser.error("usage: python -m repro run <spec.yaml>")
        spec = ExperimentSpec.load(args.overrides[1])
    else:
        cfg = compose(store, args.config_name, overrides=args.overrides)
        if args.dry_run:
            print(dumps(cfg.to_container()))
            return 0
        spec = ExperimentSpec.from_config(cfg)

    if args.print_config:
        print(spec.to_yaml(), end="")
        return 0

    experiment = Experiment(spec)
    result = experiment.run()
    _print_result(experiment, result)
    if args.save:
        path = result.save(args.save)
        print(f"saved: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
