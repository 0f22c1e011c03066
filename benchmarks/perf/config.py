"""Names, units, bounds and sizes of the benchmark: the single source that
``BENCHMARK.json`` mirrors (``test_harness.py`` checks they agree).

No program import here, so the tests and the supervisor can read it without
``src`` on the path.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

#: wall seconds the fixed probe takes at reference machine speed; every lap
#: time is scaled by ``PROBE_REF_S / measured probe`` so the unit stays
#: seconds "at reference speed" whatever the machine is doing that minute
PROBE_REF_S = 0.025

#: default length of one run's timed phase (BENCHMARK.json ``run_seconds``)
RUN_SECONDS = 24
#: a run with fewer timed laps than this is reported as incorrect: a p10
#: over a handful of laps is the noise this benchmark exists to avoid
MIN_LAPS = 60
#: set-up cycles per run (``setup_s`` is their median)
SETUP_CYCLES = 5
#: laps per phase of a traced run (untraced / traced / telemetry / unpinned)
TRACE_LAPS = 20


class Workload(NamedTuple):
    name: str
    why: str
    #: applied client updates per lap (what ``updates_per_s`` divides)
    updates_per_lap: int
    #: client turns the program starts per lap (applied + drained)
    turns_per_lap: int
    #: collective rounds per lap (``comm.*_per_round`` divides by it)
    rounds_per_lap: int = 1


WORKLOADS: List[Workload] = [
    Workload(
        "pool_async",
        "2000 clients on a 2-thread memory pool, fedasync window of 8, tiny MLP: "
        "scheduler, pool and state-swap cost dominate training",
        updates_per_lap=200, turns_per_lap=208,
    ),
    Workload(
        "train_sync",
        "4 clients, sync barrier on the pool, resnet18, trimmed-mean merge, eval each "
        "round: nn+algorithms are nearly all CPU, framework overhead is bypassed",
        updates_per_lap=4, turns_per_lap=4,
    ),
    Workload(
        "hier_rounds",
        "collective rounds, 2 sites x 3 trainers, torchdist inner + grpc outer, topk "
        "compression: codec, compression and comm dominate; no scheduler or pool",
        updates_per_lap=72, turns_per_lap=72, rounds_per_lap=12,
    ),
    Workload(
        "redis_worker",
        "the pool_async federation at 256 clients over redis:// with one worker "
        "process: serde, RESP and broker hand-off across a process boundary",
        updates_per_lap=60, turns_per_lap=64,
    ),
]
WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


END_TO_END: List[EndToEnd] = [
    EndToEnd("updates_per_s", "1/s", "higher", 0.20),
    EndToEnd("cpu_s_per_update", "s", "lower", 0.20),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
    EndToEnd("setup_s", "s", "lower", 0.25),
]


class Layer(NamedTuple):
    """One per-layer metric.

    ``kind`` says how it is derived from the folded spans named in
    ``spans`` (``self``/``wait``: span self thread-CPU / self waiting per
    update; ``cpu``: inclusive CPU per update; ``calls``: count per update;
    ``sum``/``mean``: of the value a span carries) or ``extra`` for numbers
    ``run.py`` measures outside the span table.
    """

    name: str
    unit: str
    better: str
    kind: str
    spans: tuple = ()
    #: only spans recorded in worker processes (not the engine's)
    worker_only: bool = False
    moves: Optional[str] = None


_U = "s/update"

PER_LAYER: List[Layer] = [
    # -- set-up ---------------------------------------------------------
    Layer("engine.build_s", "s/run", "lower", "extra", moves="setup_s, all workloads"),
    Layer("engine.setup_s", "s/run", "lower", "extra", moves="setup_s, all workloads"),
    Layer("engine.first_lap_extra_s", "s/run", "lower", "extra", moves="setup_s, all workloads"),
    Layer("runtime.worker_join_s", "s/run", "lower", "extra", moves="setup_s @ redis_worker"),
    # -- scheduler ------------------------------------------------------
    Layer("scheduler.select_s", _U, "lower", "self", ("scheduler.select",),
          moves="updates_per_s @ pool_async"),
    Layer("scheduler.select_calls", "1/update", "lower", "calls", ("scheduler.select",),
          moves="updates_per_s @ pool_async"),
    Layer("scheduler.dispatch_s", _U, "lower", "self", ("scheduler.dispatch",),
          moves="updates_per_s @ pool_async"),
    Layer("scheduler.loop_self_s", _U, "lower", "self",
          ("scheduler.loop", "scheduler.retire"),
          moves="updates_per_s @ pool_async"),
    Layer("scheduler.ticket_wait_s", _U, "lower", "wait", ("scheduler.ticket_wait",),
          moves="updates_per_s @ pool_async, redis_worker"),
    Layer("scheduler.merge_s", _U, "lower", "self", ("scheduler.merge",),
          moves="updates_per_s @ pool_async, redis_worker"),
    Layer("scheduler.record_s", _U, "lower", "self", ("scheduler.record",),
          moves="updates_per_s @ pool_async, redis_worker"),
    Layer("scheduler.trained_per_applied", "ratio", "lower", "extra",
          moves="cpu_s_per_update @ pool_async"),
    Layer("algorithms.aggregate_s", _U, "lower", "self", ("algorithms.aggregate",),
          moves="updates_per_s @ hier_rounds"),
    Layer("robust.combine_s", _U, "lower", "self", ("robust.combine",),
          moves="updates_per_s @ train_sync"),
    # -- runtime: the client pool --------------------------------------
    Layer("runtime.submit_s", _U, "lower", "self", ("runtime.submit",),
          moves="updates_per_s @ pool_async"),
    Layer("runtime.turn_done_s", _U, "lower", "self", ("runtime.turn_done",),
          moves="updates_per_s @ pool_async"),
    Layer("runtime.queue_wait_s", "s/turn", "lower", "extra",
          moves="updates_per_s @ pool_async, redis_worker"),
    Layer("runtime.worker_thread_self_s", _U, "lower", "extra",
          moves="updates_per_s @ pool_async"),
    Layer("node.swap_in_s", _U, "lower", "self", ("node.swap_in",),
          moves="updates_per_s, peak_rss_mb @ pool_async"),
    Layer("node.swap_out_s", _U, "lower", "self", ("node.swap_out",),
          moves="updates_per_s, peak_rss_mb @ pool_async"),
    Layer("engine.store_s", _U, "lower", "self", ("engine.store",),
          moves="updates_per_s, peak_rss_mb @ pool_async"),
    # -- node / training ------------------------------------------------
    Layer("node.local_update_self_s", _U, "lower", "self", ("node.local_update",),
          moves="updates_per_s @ pool_async"),
    Layer("node.run_round_self_s", _U, "lower", "self", ("node.run_round",),
          moves="updates_per_s @ hier_rounds"),
    Layer("node.evaluate_s", _U, "lower", "self", ("node.evaluate",),
          moves="updates_per_s @ train_sync"),
    Layer("algorithms.local_train_self_s", _U, "lower", "self", ("algorithms.local_train",),
          moves="updates_per_s, cpu_s_per_update @ train_sync"),
    Layer("nn.forward_s", _U, "lower", "self", ("nn.forward",),
          moves="updates_per_s, cpu_s_per_update @ train_sync"),
    Layer("nn.backward_s", _U, "lower", "self", ("nn.backward",),
          moves="updates_per_s, cpu_s_per_update @ train_sync"),
    Layer("nn.optim_step_s", _U, "lower", "self", ("nn.optim_step",),
          moves="updates_per_s, cpu_s_per_update @ train_sync"),
    Layer("data.batch_s", _U, "lower", "self", ("data.batch",),
          moves="updates_per_s @ pool_async"),
    # -- codec / compression / comm -------------------------------------
    Layer("node.codec_encode_s", _U, "lower", "self", ("node.codec_encode",),
          moves="updates_per_s @ hier_rounds"),
    Layer("node.codec_decode_s", _U, "lower", "self", ("node.codec_decode",),
          moves="updates_per_s @ hier_rounds"),
    Layer("compression.compress_s", _U, "lower", "self", ("compression.compress",),
          moves="updates_per_s @ hier_rounds"),
    Layer("compression.decompress_s", _U, "lower", "self", ("compression.decompress",),
          moves="updates_per_s @ hier_rounds"),
    Layer("compression.ratio", "ratio", "higher", "mean", ("compression.compress",),
          moves="comm.*_bytes_per_round @ hier_rounds"),
    Layer("comm.collective_s", _U, "lower", "self", ("comm.collective",),
          moves="updates_per_s @ hier_rounds"),
    Layer("comm.collective_wait_s", _U, "lower", "wait", ("comm.collective",),
          moves="updates_per_s @ hier_rounds"),
    Layer("comm.wire_encode_s", _U, "lower", "self", ("comm.wire_encode",),
          moves="updates_per_s @ hier_rounds, redis_worker"),
    Layer("comm.wire_decode_s", _U, "lower", "self", ("comm.wire_decode",),
          moves="updates_per_s @ hier_rounds, redis_worker"),
    Layer("comm.inner_bytes_per_round", "B/round", "lower", "extra",
          moves="exact; must not move @ hier_rounds"),
    Layer("comm.outer_bytes_per_round", "B/round", "lower", "extra",
          moves="exact; must not move @ hier_rounds"),
    Layer("comm.inner_sim_s_per_round", "sim_s/round", "lower", "extra",
          moves="exact; must not move @ hier_rounds"),
    Layer("comm.outer_sim_s_per_round", "sim_s/round", "lower", "extra",
          moves="exact; must not move @ hier_rounds"),
    # -- runtime: across the process boundary -------------------------
    Layer("runtime.serde_encode_s", _U, "lower", "self", ("runtime.serde_encode",),
          moves="cpu_s_per_update @ redis_worker"),
    Layer("runtime.serde_decode_s", _U, "lower", "self", ("runtime.serde_decode",),
          moves="cpu_s_per_update @ redis_worker"),
    Layer("runtime.serde_bytes_per_update", "B/update", "lower", "sum",
          ("runtime.serde_encode",), moves="cpu_s_per_update @ redis_worker"),
    Layer("runtime.resp_s", _U, "lower", "self", ("runtime.resp",),
          moves="updates_per_s, cpu_s_per_update @ redis_worker"),
    Layer("runtime.resp_cmds_per_update", "1/update", "lower", "calls", ("runtime.resp",),
          moves="updates_per_s @ redis_worker"),
    Layer("runtime.miniredis_cpu_s", _U, "lower", "extra",
          moves="updates_per_s, cpu_s_per_update @ redis_worker"),
    Layer("runtime.collector_cpu_s", _U, "lower", "extra",
          moves="updates_per_s, cpu_s_per_update @ redis_worker"),
    Layer("runtime.turn_rtt_s", "s/turn", "lower", "extra",
          moves="updates_per_s @ redis_worker"),
    Layer("runtime.worker_cpu_s", _U, "lower", "extra",
          moves="cpu_s_per_update @ redis_worker"),
    Layer("runtime.worker_train_s", _U, "lower", "cpu", ("node.local_update",),
          worker_only=True, moves="cpu_s_per_update @ redis_worker"),
    Layer("runtime.worker_loop_self_s", _U, "lower", "extra",
          moves="cpu_s_per_update @ redis_worker"),
    Layer("runtime.requeues", "count", "lower", "extra", moves="ops_failed @ redis_worker"),
    Layer("runtime.turns_lost", "count", "lower", "extra", moves="ops_failed @ redis_worker"),
    # -- diagnostics ----------------------------------------------------
    Layer("runtime.unpinned_slowdown", "ratio", "lower", "extra",
          moves="diagnostic: cross-core cost of the thread hand-off"),
    Layer("telemetry.trace_overhead", "ratio", "lower", "extra",
          moves="settles ROADMAP 1(b)"),
    Layer("bench.wrapper_overhead", "ratio", "lower", "extra",
          moves="quality of the table itself"),
    Layer("bench.unattributed_share", "ratio", "lower", "extra",
          moves="quality of the table itself"),
]

#: which layers count toward each workload's acceptance share (README)
LAYER_GROUPS: Dict[str, tuple] = {
    "nn+algorithms": ("nn.forward_s", "nn.backward_s", "nn.optim_step_s",
                      "algorithms.local_train_self_s", "algorithms.aggregate_s",
                      "robust.combine_s"),
    "codec+compression+comm+aggregation": (
        "node.codec_encode_s", "node.codec_decode_s", "compression.compress_s",
        "compression.decompress_s", "comm.collective_s", "comm.wire_encode_s",
        "comm.wire_decode_s", "algorithms.aggregate_s"),
    "training": ("nn.forward_s", "nn.backward_s", "nn.optim_step_s",
                 "algorithms.local_train_self_s", "data.batch_s"),
}
