"""The one benchmark module that touches the program under test.

Everything the benchmark knows about ``repro`` is here: how a spec mapping
becomes an engine (``Engine.from_spec`` → ``setup`` → ``run``/``run_async``
→ ``shutdown``, ``comm_summary``), how the redis arm gets its server and its
worker process, the public comm-registry resets, and the table of public
functions the tracer wraps.  When the program moves an API, this file moves
with it and nothing else in ``benchmarks/perf`` does.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from perf.workloads import REDIS_PLACEHOLDER

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def ensure_importable() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; the benchmark must
    measure this tree, not an installed copy."""
    if not program_present():
        raise SystemExit(f"benchmark needs the program source at {SRC} (not found)")
    src = str(SRC)
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)


def reset_comm() -> None:
    """Clear the process-wide comm registries so the next engine can reuse
    the same rendezvous ports."""
    from repro.comm.pubsub import reset_brokers
    from repro.comm.torchdist import reset_rendezvous
    from repro.comm.transport import reset_inproc_registry

    reset_rendezvous()
    reset_inproc_registry()
    reset_brokers()


class RedisServer:
    """The in-process RESP server the redis arm talks to (the container has
    no redis).  Started once per process, outside every timed region."""

    def __init__(self) -> None:
        from repro.runtime.miniredis import MiniRedis

        self._server = MiniRedis().start()
        self._runs = 0

    def next_url(self) -> str:
        """A fresh run namespace per engine; no auto-spawned workers (the
        adapter starts the one worker itself, through ``worker_entry.py``)."""
        self._runs += 1
        return (f"redis://127.0.0.1:{self._server.port}/0"
                f"?run=bench{os.getpid()}x{self._runs}&claim=60")

    def stop(self) -> None:
        self._server.stop()


class LapResult(NamedTuple):
    applied: int
    #: mean training loss over the lap's records
    train_loss: float


class Federation:
    """One engine built from a workload's spec mapping, driven lap by lap."""

    def __init__(
        self,
        spec_map: Dict[str, Any],
        *,
        redis: Optional[RedisServer] = None,
        telemetry: bool = False,
        worker_trace_out: Optional[str] = None,
    ) -> None:
        self._spec_map = dict(spec_map)
        self._redis = redis
        self._telemetry = telemetry
        self._worker_trace_out = worker_trace_out
        self._worker: Optional[subprocess.Popen] = None
        self._worker_url: Optional[str] = None
        self.worker_spawned_at: Optional[float] = None
        self.engine: Any = None
        self._rounds_mode = False

    # -- lifecycle -----------------------------------------------------
    def build(self) -> "Federation":
        from repro.engine.engine import Engine
        from repro.experiment import ExperimentSpec

        spec_map = dict(self._spec_map)
        if spec_map.get("broker") == REDIS_PLACEHOLDER:
            if self._redis is None:
                raise ValueError("this workload needs a RedisServer")
            self._worker_url = spec_map["broker"] = self._redis.next_url()
        callbacks = []
        if self._telemetry:
            from repro.telemetry import Telemetry

            callbacks.append(Telemetry(trace=True, serve=False))
        spec = ExperimentSpec(**spec_map)
        self._rounds_mode = spec.run_mode() == "rounds"
        self.engine = Engine.from_spec(spec, callbacks=callbacks)
        return self

    def setup(self) -> "Federation":
        self.engine.setup()
        if self._worker_url is not None:
            # the broker published the spec during setup; the worker can
            # load it now.  Same interpreter, same pinned CPU (inherited).
            cmd = [sys.executable, str(PERF_DIR / "worker_entry.py"), self._worker_url]
            if self._worker_trace_out:
                cmd += ["--trace-out", self._worker_trace_out]
            self.worker_spawned_at = time.perf_counter()
            self._worker = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        return self

    def lap(self, updates: int) -> LapResult:
        """Fixed work: ``updates`` applied client updates — dispatched by the
        scheduler (async runtime) or as whole collective rounds of every
        trainer (rounds loop)."""
        history = self.engine.metrics.history
        before = len(history)
        if self._rounds_mode:
            self.engine.run(rounds=updates // self.engine.topology.trainer_count())
        else:
            self.engine.run_async(total_updates=updates)
        records = history[before:]
        if self._rounds_mode:
            applied = sum(
                1 for rec in records for stats in rec.per_node.values()
                if stats.get("participated")
            )
        else:
            applied = sum(int(rec.applied) for rec in records)
        losses = [float(rec.train_loss) for rec in records]
        return LapResult(applied, sum(losses) / len(losses) if losses else float("nan"))

    def loss_history(self) -> List[float]:
        return [float(r.train_loss) for r in self.engine.metrics.history]

    def comm_summary(self) -> Dict[str, Dict[str, float]]:
        return self.engine.comm_summary()

    def child_pids(self) -> List[int]:
        return [self._worker.pid] if self._worker is not None else []

    def shutdown(self) -> None:
        try:
            if self.engine is not None:
                self.engine.shutdown()
        finally:
            worker, self._worker = self._worker, None
            if worker is not None:
                try:
                    worker.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()
            reset_comm()


def worker_main(argv: List[str]) -> int:
    """``python -m repro worker <url>``, run in this process so a tracer
    installed beforehand sees the worker's side of every turn."""
    import runpy

    ensure_importable()
    sys.argv = ["repro"] + argv
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


# ----------------------------------------------------------------------
# tracer targets: the public functions each layer is entered through
# ----------------------------------------------------------------------
class Target(NamedTuple):
    """One function the tracer wraps.

    ``module`` + ``path`` resolve by import and ``getattr`` (``Class.method``
    or a module-level function); ``sites`` are modules that imported the
    function by name and so hold their own reference to rebind.  ``mode`` is
    ``call``, ``outermost`` (nested calls on one thread fold into the outer
    span) or ``iter`` (one span per item the returned iterator yields).
    ``turn`` and ``value`` name hook functions below.
    """

    span: str
    module: str
    path: str
    sites: Tuple[str, ...] = ()
    mode: str = "call"
    turn: Optional[str] = None
    value: Optional[str] = None


def turn_from_submit(args: tuple) -> Tuple[str, int]:      # ClientPool.submit(self, client, ...)
    return ("submit", int(args[1]))


def turn_from_begin(args: tuple) -> Tuple[str, int]:       # Node.begin_client_turn(self, client_id, ...)
    return ("begin", int(args[1]))


def turn_from_ticket(args: tuple) -> Tuple[str, int]:      # PoolTicket.result(self, ...)
    return ("result", int(args[0].client))


def turn_from_round(args: tuple) -> Tuple[str, str]:       # Node.run_round(self, ...)
    return ("round", str(args[0].name))


def value_ratio(result: Any) -> float:                      # Compressor.compress -> payload
    return float(result.ratio)


def value_len(result: Any) -> float:                        # serde.encode_* -> frame
    return float(len(result))


HOOKS = {f.__name__: f for f in (turn_from_submit, turn_from_begin, turn_from_ticket,
                                 turn_from_round, value_ratio, value_len)}

_COMM_OPS = ("broadcast_state", "gather_states", "allreduce")
_SERDE_ENC = ("encode_snapshot", "encode_payload", "encode_turn", "encode_result")
_SERDE_DEC = ("decode_snapshot", "decode_payload", "decode_turn", "decode_result")

TARGETS: List[Target] = [
    Target("engine.build", "repro.engine.engine", "Engine.from_spec"),
    Target("engine.setup", "repro.engine.engine", "Engine.setup", mode="outermost"),
    Target("engine.setup", "repro.engine.engine", "Engine.setup_async", mode="outermost"),
    Target("scheduler.loop", "repro.engine.engine", "Engine.run_async"),
    Target("engine.round", "repro.engine.engine", "Engine.run_round"),
    *[Target("scheduler.select", "repro.scheduler.selection", f"{cls}.select")
      for cls in ("RandomSelection", "RoundRobinSelection", "PowerOfChoiceSelection")],
    Target("scheduler.dispatch", "repro.scheduler.base", "Scheduler.dispatch"),
    Target("scheduler.retire", "repro.scheduler.base", "Scheduler.retire"),
    Target("scheduler.record", "repro.scheduler.base", "Scheduler.record_aggregation"),
    Target("scheduler.merge", "repro.scheduler.policies", "FedAsyncScheduler.ingest"),
    Target("scheduler.ticket_wait", "repro.runtime.pool", "PoolTicket.result",
           turn="turn_from_ticket"),
    Target("algorithms.aggregate", "repro.algorithms.fedavg", "FedAvg.aggregate"),
    Target("robust.combine", "repro.robust.aggregators", "TrimmedMean.combine"),
    Target("runtime.submit", "repro.runtime.pool", "ClientPool.submit",
           turn="turn_from_submit"),
    Target("runtime.turn_done", "repro.runtime.pool", "ClientPool.turn_done"),
    Target("engine.store", "repro.engine.client_state", "ClientStateStore.get"),
    Target("engine.store", "repro.engine.client_state", "ClientStateStore.put"),
    Target("node.swap_in", "repro.node.node", "Node.begin_client_turn",
           turn="turn_from_begin"),
    Target("node.swap_out", "repro.node.node", "Node.end_client_turn"),
    Target("node.local_update", "repro.node.node", "Node.local_update"),
    Target("node.run_round", "repro.node.node", "Node.run_round", turn="turn_from_round"),
    Target("node.evaluate", "repro.node.node", "Node.evaluate"),
    Target("algorithms.local_train", "repro.algorithms.fedavg", "FedAvg.local_train"),
    Target("nn.forward", "repro.nn.module", "Module.__call__", mode="outermost"),
    Target("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    Target("nn.optim_step", "repro.nn.optim", "SGD.step"),
    Target("data.batch", "repro.data.dataloader", "DataLoader.__iter__", mode="iter"),
    Target("node.codec_encode", "repro.node.codec", "encode_update",
           sites=("repro.node.node", "repro.node")),
    Target("node.codec_decode", "repro.node.codec", "decode_update",
           sites=("repro.node.node", "repro.node")),
    Target("compression.compress", "repro.compression.topk", "TopK.compress",
           value="value_ratio"),
    Target("compression.decompress", "repro.compression.topk", "TopK.decompress"),
    *[Target("comm.collective", "repro.comm.torchdist", f"TorchDistCommunicator.{op}")
      for op in _COMM_OPS],
    *[Target("comm.collective", "repro.comm.rpc", f"GrpcCommunicator.{op}")
      for op in _COMM_OPS],
    Target("comm.wire_encode", "repro.comm.wire", "encode_message",
           sites=("repro.comm.rpc", "repro.runtime.serde", "repro.comm")),
    Target("comm.wire_decode", "repro.comm.wire", "decode_message",
           sites=("repro.comm.rpc", "repro.runtime.serde", "repro.comm")),
    *[Target("runtime.serde_encode", "repro.runtime.serde", fn, value="value_len")
      for fn in _SERDE_ENC],
    *[Target("runtime.serde_decode", "repro.runtime.serde", fn) for fn in _SERDE_DEC],
    Target("runtime.resp", "repro.runtime.resp", "RespClient.execute"),
]

#: thread-name fragments the tracer groups CPU by (engine process)
THREAD_GROUPS = {
    "pool_worker": ("pool_worker_",),
    "miniredis": ("miniredis", "process_request_thread"),
    "collector": ("redis-broker-collector",),
}
