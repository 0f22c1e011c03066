#!/usr/bin/env python3
"""Pinned, probe-normalised benchmark of the federation runtime.

    python3 benchmarks/perf/run.py --seed 1            # four workloads, end to end
    python3 benchmarks/perf/run.py --seed 1 --trace    # plus the per-layer table
    python3 benchmarks/perf/run.py --selfcheck 4       # do two sets of runs agree?
    python3 benchmarks/perf/run.py --workload pool_async --seed 1 --seconds 22 --trace 0

The last form is the driver's: one workload, one JSON object on the last
line.  This process is only a supervisor — it pins itself (and so every
child) to one CPU, starts one fresh process per workload, restarts a hung one
once, and prints.  The measuring happens in ``--child`` processes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    # run as a script: import the benchmark as the package `perf`; dropping
    # the script directory keeps perf/trace.py from shadowing stdlib `trace`
    sys.path[0] = str(HERE.parent)

from perf import adapter, config, probe, stats, workloads  # noqa: E402

OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


# ======================================================================
# child: measure one workload in this (fresh, already pinned) process
# ======================================================================
class Laps:
    """Equal laps of one federation with the probe run between them."""

    def __init__(self, fed: Any, workload: config.Workload, speed: probe.Probe) -> None:
        self.fed, self.workload, self.speed = fed, workload, speed
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.probes: List[float] = []
        self.losses: List[float] = []
        self.short_turns = 0  # turns that did not come back as applied updates
        self.comm: List[Dict[str, Dict[str, float]]] = []

    def _cpu(self) -> float:
        return time.process_time() + sum(probe.process_cpu_s(p) for p in self.fed.child_pids())

    def one(self) -> float:
        """One untimed-by-probe lap (warm-up, first lap); returns its wall."""
        start = time.perf_counter()
        result = self.fed.lap(self.workload.updates_per_lap)
        wall = time.perf_counter() - start
        self._check(result)
        return wall

    def _check(self, result: Any) -> None:
        self.short_turns += max(0, self.workload.updates_per_lap - result.applied)
        self.losses.append(result.train_loss)

    def run(self, seconds: float, max_laps: Optional[int] = None, with_comm: bool = False) -> None:
        """Lap until ``seconds`` have passed (or ``max_laps`` are done)."""
        deadline = time.perf_counter() + seconds
        self.probes.append(self.speed())
        while True:
            cpu0 = self._cpu()
            wall0 = time.perf_counter()
            result = self.fed.lap(self.workload.updates_per_lap)
            wall1 = time.perf_counter()
            cpu1 = self._cpu()
            self.walls.append(wall1 - wall0)
            self.cpus.append(cpu1 - cpu0)
            self._check(result)
            if with_comm:
                self.comm.append(self.fed.comm_summary())
            self.probes.append(self.speed())
            if max_laps is not None and len(self.walls) >= max_laps:
                return
            if time.perf_counter() >= deadline:
                return

    def summary(self) -> Dict[str, float]:
        return stats.summarise_laps(self.walls, self.cpus, self.probes, config.PROBE_REF_S)


def _comm_deltas(snapshots: List[Dict[str, Dict[str, float]]]) -> List[Dict[str, float]]:
    """Per-lap bytes and simulated seconds per comm group, from cumulative
    ``comm_summary()`` snapshots (the first lap's delta needs a snapshot
    before it, so it is left out)."""
    rows = []
    for prev, cur in zip(snapshots, snapshots[1:]):
        row = {}
        for group in ("inner", "outer"):
            for key, short in (("bytes_sent", "bytes"), ("sim_seconds", "sim_s")):
                row[f"{group}_{short}"] = (
                    cur.get(group, {}).get(key, 0.0) - prev.get(group, {}).get(key, 0.0)
                )
        rows.append(row)
    return rows


def _comm_counts(summary: Dict[str, Dict[str, float]]) -> Dict[str, tuple]:
    """The exact part of a ``comm_summary()``: everything but wall time."""
    return {group: tuple(stats_[k] for k in ("bytes_sent", "bytes_received", "ops", "sim_seconds"))
            for group, stats_ in summary.items()}


def _comm_is_steady(deltas: List[Dict[str, float]]) -> bool:
    """hier_rounds moves the same payloads every lap.  Byte counts and
    simulated seconds may drift by a few bytes (a round counter in a frame
    header gains a digit), never by as much as a tenth of a percent."""
    first = deltas[0]
    return all(abs(row[key] - ref) <= 1e-3 * abs(ref)
               for row in deltas[1:] for key, ref in first.items())


def _redis_equals_memory(redis: Any, seed: int) -> bool:
    """The same small federation on ``memory://`` and on ``redis://`` must
    produce bit-identical loss histories."""
    histories = []
    for pooled_in_memory in (True, False):
        spec = workloads.redis_worker(seed, clients=32)
        if pooled_in_memory:
            del spec["broker"]
            spec["pool_size"] = 1
        fed = adapter.Federation(spec, redis=redis).build().setup()
        try:
            fed.lap(24)
            histories.append(fed.loss_history())
        finally:
            fed.shutdown()
    return len(histories[0]) == 24 and histories[0] == histories[1]


def _emit(diag: Dict[str, Any], correct: bool, attempted: int, failed: int,
          metrics: Dict[str, Dict[str, Any]]) -> None:
    print("DIAG " + json.dumps(diag), flush=True)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)


def _child_context(args: argparse.Namespace) -> tuple:
    """What every measuring child starts from: the program importable, the
    workload and its spec for this seed, a probe, and the redis server if the
    workload needs one."""
    adapter.ensure_importable()
    workload = config.WORKLOAD_BY_NAME[args.workload]
    redis = adapter.RedisServer() if workload.name == "redis_worker" else None
    return workload, workloads.SPECS[workload.name](args.seed), probe.Probe(), redis


def child_untraced(args: argparse.Namespace) -> int:
    import gc

    workload, spec_map, speed, redis = _child_context(args)
    checks: Dict[str, bool] = {}
    laps_run = 0
    short_turns = 0

    # set-up time: build -> set-up -> first lap done, five times over
    setups, raw_setups, first_lap_comm = [], [], []
    for _ in range(config.SETUP_CYCLES):
        before = speed()
        start = time.perf_counter()
        fed = adapter.Federation(spec_map, redis=redis).build().setup()
        cycle = Laps(fed, workload, speed)
        cycle.one()
        wall = time.perf_counter() - start
        after = speed()
        first_lap_comm.append(_comm_counts(fed.comm_summary()))
        fed.shutdown()
        laps_run += 1
        short_turns += cycle.short_turns
        raw_setups.append(wall)
        setups.append(stats.normalise(wall, before, after, config.PROBE_REF_S))
    first_loss = cycle.losses[0]

    # the timed engine
    fed = adapter.Federation(spec_map, redis=redis).build().setup()
    laps = Laps(fed, workload, speed)
    try:
        laps.one()  # warm-up, discarded
        gc.collect()
        gc.freeze()
        laps.run(args.seconds, with_comm=workload.name == "hier_rounds")
        rss = probe.peak_rss_mb() + sum(probe.peak_rss_mb(p) for p in fed.child_pids())
    finally:
        fed.shutdown()
    laps_run += 1 + len(laps.walls)
    short_turns += laps.short_turns
    summary = laps.summary()
    with open(OUT / f"laps_{workload.name}.json", "w", encoding="utf8") as fh:
        json.dump({"seed": args.seed, "walls": laps.walls, "cpus": laps.cpus,
                   "probes": laps.probes, "raw_setups": raw_setups}, fh)

    checks["applied_equals_requested"] = short_turns == 0
    checks["loss_fell"] = laps.losses[-1] < first_loss
    # (a deliberately short --seconds, for a quick look, is not an error)
    checks["enough_laps"] = len(laps.walls) >= config.MIN_LAPS or args.seconds < config.RUN_SECONDS
    if laps.comm:
        # exact counts: every fresh engine's first round costs the same bytes
        # and the same simulated seconds, bit for bit
        checks["comm_counts_repeat"] = all(c == first_lap_comm[0] for c in first_lap_comm)
        checks["comm_counts_steady"] = _comm_is_steady(_comm_deltas(laps.comm))
    if redis is not None:
        checks["redis_equals_memory"] = _redis_equals_memory(redis, args.seed)
        redis.stop()

    updates = workload.updates_per_lap
    metrics = {
        "updates_per_s": {"value": updates / summary["lap_s"], "unit": "1/s"},
        "cpu_s_per_update": {"value": summary["lap_cpu_s"] / updates, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    diag = {
        "workload": workload.name, "seed": args.seed, "checks": checks,
        "first_loss": first_loss, "last_loss": laps.losses[-1],
        "raw_setup_s": statistics.median(raw_setups),
        "raw_updates_per_s": updates / summary["raw_lap_s"], **summary,
    }
    _emit(diag, all(checks.values()), laps_run * workload.turns_per_lap, short_turns, metrics)
    return 0 if all(checks.values()) else 1


def child_unpinned(args: argparse.Namespace) -> int:
    """The same laps with the whole original CPU mask back: what thread
    placement costs (``runtime.unpinned_slowdown``)."""
    probe.unpin(int(c) for c in args.cpus.split(","))
    workload, spec_map, speed, redis = _child_context(args)
    fed = adapter.Federation(spec_map, redis=redis).build().setup()
    laps = Laps(fed, workload, speed)
    try:
        laps.one()
        laps.run(args.seconds / 4, max_laps=config.TRACE_LAPS)
    finally:
        fed.shutdown()
        if redis is not None:
            redis.stop()
    print("DIAG " + json.dumps(laps.summary()), flush=True)
    return 0


def child_traced(args: argparse.Namespace) -> int:
    from perf import trace

    workload, spec_map, speed, redis = _child_context(args)
    budget, cap = args.seconds / 4, config.TRACE_LAPS
    short_turns = 0
    laps_run = 0

    def phase(**fed_kwargs: Any) -> Laps:
        fed = adapter.Federation(spec_map, redis=redis, **fed_kwargs).build().setup()
        laps = Laps(fed, workload, speed)
        try:
            laps.one()
            laps.run(budget, max_laps=cap)
        finally:
            fed.shutdown()
        return laps

    # A: no wrappers, no telemetry — the baseline both overheads divide by
    plain = phase()
    # C: the program's own tracer on (ROADMAP 1(b))
    telemetry = phase(telemetry=True)

    # B: benchmark-owned wrappers around every layer's public functions
    recorder = trace.Recorder()
    worker_out = str(OUT / f"worker_spans_{workload.name}.json") if redis is not None else None
    installed = trace.install(recorder, adapter.TARGETS, adapter.HOOKS)
    try:
        fed = adapter.Federation(spec_map, redis=redis, worker_trace_out=worker_out).build().setup()
        traced = Laps(fed, workload, speed)
        try:
            first_lap = traced.one()
            traced.comm.append(fed.comm_summary())
            threads0 = trace.thread_cpu_snapshot()
            worker_cpu0 = sum(probe.process_cpu_s(p) for p in fed.child_pids())
            window0 = time.perf_counter()
            traced.run(budget, max_laps=cap, with_comm=True)
            window1 = time.perf_counter()
            worker_cpu = sum(probe.process_cpu_s(p) for p in fed.child_pids()) - worker_cpu0
            threads = trace.thread_cpu_delta(threads0, trace.thread_cpu_snapshot())
            spawned_at = fed.worker_spawned_at
        finally:
            fed.shutdown()
    finally:
        installed.remove()
    if redis is not None:
        redis.stop()
    for laps in (plain, telemetry, traced):
        short_turns += laps.short_turns
        laps_run += 1 + len(laps.walls)

    all_spans = [trace.Span(*row) for row in recorder.spans]
    if worker_out and os.path.exists(worker_out):
        all_spans += trace.load_spans(worker_out)
    with open(OUT / f"spans_{workload.name}.json", "w", encoding="utf8") as fh:
        json.dump({"window": [window0, window1], "spans": all_spans}, fh)

    spans = trace.in_window(all_spans, window0, window1)
    engine_pid = os.getpid()
    rows = trace.fold(spans)
    worker_rows = trace.fold(s for s in spans if s.pid != engine_pid)
    updates = len(traced.walls) * workload.updates_per_lap
    base, with_wrappers, with_telemetry = plain.summary(), traced.summary(), telemetry.summary()

    cpu = trace.attribute_cpu(spans, threads, worker_cpu, adapter.THREAD_GROUPS)
    program_cpu, group_total, group_outside = cpu["program"], cpu["group_total"], cpu["group_outside"]

    turns = trace.pair_turns(spans)
    build_span = next((s for s in all_spans if s.name == "engine.build"), None)
    setup_span = next((s for s in all_spans if s.name == "engine.setup"), None)
    first_worker_turn = next(
        (s for s in all_spans if s.name == "node.swap_in" and s.pid != engine_pid), None)
    # the engine's second lap, whatever the lap count: exact and repeatable
    comm = {k: v / workload.rounds_per_lap for k, v in _comm_deltas(traced.comm)[0].items()}
    trained = rows["node.local_update"].calls if "node.local_update" in rows else 0
    extra = {
        "engine.build_s": build_span.wall if build_span else 0.0,
        "engine.setup_s": setup_span.wall if setup_span else 0.0,
        "engine.first_lap_extra_s": first_lap - with_wrappers["raw_lap_s"],
        "runtime.worker_join_s": (first_worker_turn.wall0 - spawned_at
                                  if first_worker_turn and spawned_at else 0.0),
        "scheduler.trained_per_applied": trained / updates,
        "runtime.queue_wait_s": turns["queue_wait_s"],
        "runtime.turn_rtt_s": turns["turn_rtt_s"],
        "runtime.worker_thread_self_s": group_outside["pool_worker"] / updates,
        "runtime.miniredis_cpu_s": group_total["miniredis"] / updates,
        "runtime.collector_cpu_s": group_total["collector"] / updates,
        "runtime.worker_cpu_s": worker_cpu / updates,
        "runtime.worker_loop_self_s": cpu["worker_outside"] / updates,
        "runtime.requeues": max(0.0, turns["started"] - turns["submitted"]),
        "runtime.turns_lost": max(0.0, turns["submitted"] - turns["returned"]),
        "comm.inner_bytes_per_round": comm["inner_bytes"],
        "comm.outer_bytes_per_round": comm["outer_bytes"],
        "comm.inner_sim_s_per_round": comm["inner_sim_s"],
        "comm.outer_sim_s_per_round": comm["outer_sim_s"],
        # filled in by the supervisor from the unpinned child
        "runtime.unpinned_slowdown": 0.0,
        "telemetry.trace_overhead": with_telemetry["lap_s"] / base["lap_s"] - 1.0,
        "bench.wrapper_overhead": with_wrappers["lap_s"] / base["lap_s"] - 1.0,
        "bench.unattributed_share": cpu["unattributed"] / program_cpu,
    }
    metrics = {}
    for layer in config.PER_LAYER:
        value = trace.layer_value(layer, rows, worker_rows, updates)
        metrics[layer.name] = {"value": extra[layer.name] if value is None else value,
                               "unit": layer.unit}
    diag = {
        "workload": workload.name, "seed": args.seed, "traced_laps": len(traced.walls),
        "pinned_lap_s": base["lap_s"], "program_cpu_s_per_update": program_cpu / updates,
        "spans": len(spans),
    }
    correct = short_turns == 0 and extra["runtime.turns_lost"] == 0
    _emit(diag, correct, laps_run * workload.turns_per_lap, short_turns, metrics)
    return 0 if correct else 1


def child_main(args: argparse.Namespace) -> int:
    import faulthandler

    OUT.mkdir(exist_ok=True)
    # a hung workload dumps every thread's stack here and exits; the
    # supervisor sees the file and restarts the workload once
    with open(_watchdog_file(args.workload), "w", encoding="utf8") as dump:
        faulthandler.dump_traceback_later(_watchdog_seconds(args.seconds), exit=True, file=dump)
        try:
            if args.phase == "unpinned":
                return child_unpinned(args)
            return child_traced(args) if args.trace else child_untraced(args)
        finally:
            faulthandler.cancel_dump_traceback_later()


# ======================================================================
# supervisor
# ======================================================================
def _watchdog_file(workload: str) -> Path:
    return OUT / f"watchdog_{workload}.txt"


def _watchdog_seconds(seconds: float) -> float:
    return 2.0 * seconds + 30.0


def _spawn_child(workload: str, seed: int, seconds: float, trace_on: int, cpus: List[int],
                 phase: str = "measure") -> Dict[str, Any]:
    """One fresh process for one workload; returns ``{"result", "diag",
    "hung"}`` (``result`` is ``None`` when the child printed none)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_on),
           "--cpus", ",".join(map(str, cpus)), "--phase", phase]
    env = dict(os.environ, **probe.BLAS_ENV)
    watchdog = _watchdog_file(workload)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=_watchdog_seconds(seconds) + 15)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        try:  # the child's whole session: a worker must not outlive its run
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    result, diag = None, {}
    for line in stdout.splitlines():
        if line.startswith("DIAG "):
            diag = json.loads(line[5:])
        elif line.startswith("{"):
            result = json.loads(line)
    hung = result is None and watchdog.exists() and watchdog.stat().st_size > 0
    return {"result": result, "diag": diag, "hung": hung, "returncode": proc.returncode}


def run_workload(workload: str, seed: int, seconds: float, trace_on: int,
                 cpus: List[int]) -> Dict[str, Any]:
    """Measure one workload, restarting it once if it hangs."""
    restarts = 0
    out = _spawn_child(workload, seed, seconds, trace_on, cpus)
    if out["hung"]:
        restarts = 1
        print(f"[perf] {workload}: hung (stacks in {_watchdog_file(workload)}), restarting once",
              file=sys.stderr)
        out = _spawn_child(workload, seed, seconds, trace_on, cpus)
    out["watchdog_restarts"] = restarts
    if trace_on and out["result"] is not None:
        unpinned = _spawn_child(workload, seed, seconds, trace_on, cpus, phase="unpinned")
        if unpinned["diag"].get("lap_s"):
            out["result"]["metrics"]["runtime.unpinned_slowdown"]["value"] = (
                unpinned["diag"]["lap_s"] / out["diag"]["pinned_lap_s"])
    return out


def _expected_names(trace_on: int) -> List[str]:
    return [m.name for m in (config.PER_LAYER if trace_on else config.END_TO_END)]


def _valid(result: Optional[Dict[str, Any]], trace_on: int) -> bool:
    return (result is not None and tuple(result) == RESULT_KEYS
            and list(result["metrics"]) == _expected_names(trace_on))


def contract_mode(args: argparse.Namespace, cpus: List[int]) -> int:
    out = run_workload(args.workload, args.seed, args.seconds, args.trace, cpus)
    result = out["result"]
    if not _valid(result, args.trace):
        print(f"[perf] {args.workload}: no result (exit {out['returncode']}, "
              f"hung={out['hung']})", file=sys.stderr)
        return 1
    print(f"ops_attempted={result['attempted']} ops_failed={result['failed']} "
          f"watchdog_restarts={out['watchdog_restarts']}")
    print("DIAG " + json.dumps(out["diag"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def full_run(seed: int, seconds: float, trace_on: int, cpus: List[int],
             quiet: bool = False) -> Dict[str, Any]:
    """All four workloads, one fresh process each."""
    rows: Dict[str, Any] = {}
    for workload in config.WORKLOADS:
        out = run_workload(workload.name, seed, seconds, trace_on, cpus)
        if not _valid(out["result"], trace_on):
            raise SystemExit(f"[perf] {workload.name}: no result "
                             f"(exit {out['returncode']}, hung={out['hung']})")
        rows[workload.name] = out
        if not quiet:
            _print_workload(workload.name, out, trace_on)
    return rows


def _print_workload(name: str, out: Dict[str, Any], trace_on: int) -> None:
    result, diag = out["result"], out["diag"]
    print(f"== {name}: correct={result['correct']} ops_attempted={result['attempted']} "
          f"ops_failed={result['failed']} watchdog_restarts={out['watchdog_restarts']}")
    if trace_on:
        return
    for metric in config.END_TO_END:
        print(f"  {metric.name:<18} {result['metrics'][metric.name]['value']:>14.6g} {metric.unit}")
    print(f"  (diagnostics, not metrics: laps={diag.get('laps')} "
          f"raw_updates_per_s={diag.get('raw_updates_per_s', 0):.6g} "
          f"raw_setup_s={diag.get('raw_setup_s', 0):.4g} "
          f"probe_median_s={diag.get('probe_median_s', 0):.4g} checks={diag.get('checks')})")


def _print_layer_table(rows: Dict[str, Any]) -> None:
    names = [w.name for w in config.WORKLOADS]
    print(f"{'per-layer metric':<34}{'unit':<12}" + "".join(f"{n:>14}" for n in names))
    for layer in config.PER_LAYER:
        cells = "".join(
            f"{rows[n]['result']['metrics'][layer.name]['value']:>14.5g}" for n in names)
        print(f"{layer.name:<34}{layer.unit:<12}{cells}")
    for group, members in config.LAYER_GROUPS.items():
        cells = ""
        for n in names:
            metrics = rows[n]["result"]["metrics"]
            total = rows[n]["diag"]["program_cpu_s_per_update"]
            cells += f"{sum(metrics[m]['value'] for m in members) / total:>14.1%}"
        print(f"{'share: ' + group:<46}{cells}")


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _record(seed: int, rows: Dict[str, Any]) -> None:
    row = {"commit": _commit(), "seed": seed, "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
           "metrics": {name: {k: v["value"] for k, v in out["result"]["metrics"].items()}
                       for name, out in rows.items()}}
    with open(HISTORY, "a", encoding="utf8") as fh:
        fh.write(json.dumps(row) + "\n")


def selfcheck(args: argparse.Namespace, cpus: List[int]) -> int:
    """Run the benchmark 2N times, alternating sets A and B, and hold the
    benchmark to its own bounds: do two sets of the same code agree?"""
    sets: Dict[str, Dict[str, Dict[str, List[float]]]] = {"a": {}, "b": {}}
    for i in range(2 * args.selfcheck):
        tag = "ab"[i % 2]
        rows = full_run(args.seed + i, args.seconds, 0, cpus, quiet=True)
        for name, out in rows.items():
            for metric, cell in out["result"]["metrics"].items():
                sets[tag].setdefault(name, {}).setdefault(metric, []).append(cell["value"])
        print(f"[perf] selfcheck run {i + 1}/{2 * args.selfcheck} (set {tag.upper()}) done",
              flush=True)
    worst = 0
    print(f"{'workload':<14}{'metric':<18}{'median A':>12}{'median B':>12}"
          f"{'IQR A':>9}{'IQR B':>9}{'gap':>8}{'bound':>8}")
    for workload in config.WORKLOADS:
        for metric in config.END_TO_END:
            a = sets["a"][workload.name][metric.name]
            b = sets["b"][workload.name][metric.name]
            cmp = stats.compare_sets(a, b, metric.better, metric.bound)
            iqr_a = (cmp["q3_a"] - cmp["q1_a"]) / cmp["median_a"]
            iqr_b = (cmp["q3_b"] - cmp["q1_b"]) / cmp["median_b"]
            flag = "" if cmp["ok"] else "  <-- exceeds bound"
            worst += not cmp["ok"]
            print(f"{workload.name:<14}{metric.name:<18}{cmp['median_a']:>12.5g}"
                  f"{cmp['median_b']:>12.5g}{iqr_a:>9.2%}{iqr_b:>9.2%}"
                  f"{cmp['gap']:>8.2%}{cmp['bound']:>8.0%}{flag}")
    return 1 if worst else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in config.WORKLOADS], default=None,
                        help="one workload, result as one JSON line (default: all four, as a table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(config.RUN_SECONDS),
                        help="length of the timed phase of each workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: wrap every layer and report the per-layer metrics")
    parser.add_argument("--selfcheck", type=int, default=0, metavar="N",
                        help="run 2N times in two alternating sets and compare them")
    parser.add_argument("--record", action="store_true",
                        help=f"append this run's metrics to {HISTORY.name}")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--phase", default="measure", help=argparse.SUPPRESS)
    parser.add_argument("--cpus", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    if not adapter.program_present():
        print(f"[perf] no program to measure: {adapter.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cpus = probe.pin_to_one_cpu()
    if args.selfcheck:
        return selfcheck(args, cpus)
    if args.workload:
        return contract_mode(args, cpus)
    rows = full_run(args.seed, args.seconds, args.trace, cpus)
    if args.trace:
        _print_layer_table(rows)
    if args.record:
        _record(args.seed, rows)
    return 0 if all(out["result"]["correct"] for out in rows.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
