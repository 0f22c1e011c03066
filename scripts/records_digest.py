#!/usr/bin/env python3
"""sha256 over one benchmark workload's records and final global state.

    python3 scripts/records_digest.py redis_worker --seed 1 --updates 600
    python3 scripts/records_digest.py pool_async --seed 1 --updates 3000
    python3 scripts/records_digest.py hier_rounds --seed 1 --rounds 24

Runs the workload's spec (``benchmarks/perf/workloads.py``) once through
``Experiment.run()`` and prints one hex digest.  How long it runs is set the
way the spec's loop counts work: ``--updates`` sets ``total_updates`` on a
scheduler-driven spec, ``--rounds`` sets ``train.global_rounds`` on a
collective-rounds one (``hier_rounds``); the other flag is an error there.
A ``redis://`` workload runs against an in-process MiniRedis with one
auto-spawned worker process.  Two trees that print the same digest produced
the same records and the same final model, bit for bit.

The digest hashes, in order: every record's ``as_dict()`` without
``wall_seconds`` as sorted-key JSON (one object per record, concatenated),
then, for every final-state entry in sorted key order, its name, dtype,
shape and raw bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

from perf import workloads  # noqa: E402
from repro.experiment import Experiment, ExperimentSpec  # noqa: E402


def _plain(value):
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    return float(value)


def digest(records, state) -> str:
    h = hashlib.sha256()
    for record in records:
        row = {k: _plain(v) for k, v in record.as_dict().items() if k != "wall_seconds"}
        h.update(json.dumps(row, sort_keys=True).encode())
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        for part in (key.encode(), str(arr.dtype).encode(), str(arr.shape).encode(), arr.tobytes()):
            h.update(part)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    length = parser.add_mutually_exclusive_group(required=True)
    length.add_argument("--updates", type=int, help="total_updates (scheduler-driven specs)")
    length.add_argument("--rounds", type=int, help="train.global_rounds (collective-rounds specs)")
    args = parser.parse_args()

    spec_map = workloads.SPECS[args.workload](args.seed)
    rounds_mode = ExperimentSpec(**spec_map).run_mode() == "rounds"
    if rounds_mode and args.updates is not None:
        parser.error(f"{args.workload} runs collective rounds: give --rounds, not --updates")
    if not rounds_mode and args.rounds is not None:
        parser.error(f"{args.workload} is scheduler-driven: give --updates, not --rounds")
    if rounds_mode:
        spec_map["train"] = {**spec_map["train"], "global_rounds": args.rounds}
    else:
        spec_map["total_updates"] = args.updates
    server = None
    if spec_map.get("broker") == workloads.REDIS_PLACEHOLDER:
        from repro.runtime.miniredis import MiniRedis

        server = MiniRedis().start()
        spec_map["broker"] = f"redis://127.0.0.1:{server.port}/0?run=digest&workers=1"
    try:
        result = Experiment(ExperimentSpec(**spec_map)).run()
    finally:
        if server is not None:
            server.stop()
    print(digest(result.metrics.history, result.final_state))
    return 0


if __name__ == "__main__":
    sys.exit(main())
