"""Fused client turns: several pooled ``local_update`` calls as one stacked
tensor pass, engaged by the ``memory://`` broker and by ``redis://`` worker
processes wherever it is exact.

At bench scale the per-turn cost is dominated by fixed overheads — tape
construction, per-layer dispatch, state-dict plumbing — on tiny matmuls.
Stacking K clients' parameters into ``(K, ...)`` arrays and handing the
stacks to the array kernels behind ``F.linear``, ``F.relu``,
``F.cross_entropy`` and ``SGD.step`` amortizes all of it.  Those kernels
take leading stack axes and are slice-independent (see DESIGN.md,
"Kernels"), so slice ``k`` of the fused pass is **bitwise identical** to
running client ``k`` through the autograd path — it is the same code.
What is left here is deciding when that holds, and the bookkeeping around
it: eligibility, grouping, stacking, snapshot assembly.  The runner exists
only for configurations where the identity can be proven —

* the algorithm vets itself via :meth:`Algorithm.fusion_safe` (no persistent
  per-client algo state, none of the hooks this loop stands in for
  overridden);
* the model describes its forward as a linear/relu plan via
  :meth:`FederatedModel.fused_plan` (anything else — BatchNorm, convs —
  returns None and disables fusion);
* the node rules out codec/DP plugins in :meth:`Node.fusion_context`;
* per ticket, :meth:`turn_eligible` checks the payload covers every model
  key not persisted per-client (so batched init needs no worker model).

Anything failing a check runs the exact per-turn path (in
:class:`~repro.runtime.broker.MemoryBroker`, or
:class:`~repro.runtime.worker.Worker` in another process), so fusion can
never change results — only how fast they arrive.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataloader import materialize_batches
from repro.engine.client_state import ClientSnapshot
from repro.nn import functional as F
from repro.nn.optim import SGD
from repro.utils.logging import get_logger
from repro.utils.seeding import DATA_STREAM, client_rng

_LOG = get_logger("fused")

__all__ = ["FusedTurnRunner"]


class _ClientTurn:
    """One job's per-client bookkeeping across the fused pass."""

    __slots__ = ("ticket", "snapshot", "view", "rng", "batches",
                 "payload", "version", "lr", "load_keys",
                 "total_loss", "samples", "correct", "batches_run")

    def __init__(self, ticket, snapshot, view, rng, batches) -> None:
        self.ticket = ticket
        self.snapshot = snapshot
        self.view = view
        self.rng = rng
        self.batches = batches
        self.payload = ticket.args[0]
        self.version = int(ticket.args[1])
        self.lr = 0.0
        self.load_keys: Any = None
        self.total_loss = 0.0
        self.samples = 0
        self.correct = 0
        self.batches_run = 0


class FusedTurnRunner:
    """Runs batches of compatible ``local_update`` turns as stacked math.

    Built once per broker from a worker's :meth:`Node.fusion_context`
    (:meth:`build`) and shared by every worker thread: ``run_batch`` keeps
    no state between calls and never mutates the snapshots or the payload
    it is given — a failure at any point leaves the sequential fallback an
    untouched starting state.  ``turn_eligible`` is called under the pool
    lock only.
    """

    def __init__(self, context: Dict[str, Any]) -> None:
        self.plan: List[Tuple[str, ...]] = list(context["plan"])
        self.state_keys: List[str] = list(context["state_keys"])
        # model keys a client keeps between turns (None from the algorithm: all)
        persistent = context["persistent_keys"]
        self.persistent: List[str] = list(self.state_keys if persistent is None else persistent)
        self.algo = context["algorithm"]
        self.seed = int(context["seed"])
        self.batch_size = int(context["batch_size"])
        # payload-coverage verdict, cached per payload object (payload
        # identity is stable per dispatch version via the scheduler cache;
        # the strong reference also keeps id() from being recycled)
        self._coverage: Optional[Tuple[Any, bool]] = None

    @classmethod
    def build(cls, context: Optional[Dict[str, Any]]) -> Optional["FusedTurnRunner"]:
        """The runner for a node's fusion context, or ``None`` when the
        configuration does not fuse: the node ruled it out (``context`` is
        ``None``), a model entry is not a planned parameter (a buffer would
        train differently than on the autograd path), or the batch cap is
        zero (that trains nothing yet still draws each epoch's shuffle,
        which ``materialize_batches`` does not do)."""
        if context is None:
            return None
        runner = cls(context)
        plan_params = {k for op in runner.plan if op[0] == "linear" for k in op[1:]}
        cap = runner.algo.max_batches_per_epoch
        if plan_params != set(runner.state_keys) or (cap is not None and cap <= 0):
            return None
        return runner

    # ------------------------------------------------------------------
    def turn_eligible(self, ticket) -> bool:
        """Cheap per-ticket gate (called on the submit path): a training
        turn in the scheduler's call shape whose payload covers every model
        key the client does not keep itself."""
        if ticket.method != "local_update" or ticket.kwargs or len(ticket.args) != 3:
            return False
        payload = ticket.args[0]
        if not isinstance(payload, Mapping) or not payload:
            return False
        cached = self._coverage
        if cached is not None and cached[0] is payload:
            return cached[1]
        load = self._load_keys(payload)
        ok = all(k in load or k in self.persistent for k in self.state_keys)
        self._coverage = (payload, ok)
        return ok

    def _load_keys(self, payload: Mapping[str, Any]) -> set:
        """Model keys ``on_round_start`` would load from this payload."""
        return set(self.algo.fused_round_start_keys(list(payload.keys()))) & set(payload)

    # ------------------------------------------------------------------
    def run_batch(
        self,
        jobs: Sequence[Tuple[Any, Optional[ClientSnapshot], Any]],
        baseline: Dict[str, Any],
    ) -> List[Tuple[Dict[str, Any], ClientSnapshot]]:
        """``jobs`` is ``[(ticket, snapshot_or_None, data_view), ...]`` of
        eligible ``local_update`` turns (payloads/versions may differ —
        turns from several dispatch epochs fuse together); returns the
        job-aligned ``[(local_update result, new snapshot), ...]``."""
        algo = self.algo

        # every client's batch sequence up front, from the DataLoader over
        # its own rng stream (restored from the snapshot after a first turn)
        clients: List[_ClientTurn] = []
        for ticket, snapshot, view in jobs:
            if snapshot is None:
                rng = client_rng(self.seed, ticket.client, DATA_STREAM)
            else:
                # a fixed seed, overwritten at once: default_rng() would draw
                # OS entropy per client per pass only to throw it away
                rng = np.random.Generator(np.random.PCG64(0))
                rng.bit_generator.state = snapshot.loader_rng
            batches = materialize_batches(
                view, self.batch_size, rng, algo.local_epochs, algo.max_batches_per_epoch
            )
            clients.append(_ClientTurn(ticket, snapshot, view, rng, batches))

        # stacking needs rectangular slices: group clients that agree on
        # per-step batch shapes, learning rate, and payload schema (uneven
        # shards or mixed dispatch epochs split into a few groups; a
        # singleton group runs the same fused code at K=1)
        load_cache: Dict[tuple, frozenset] = {}
        groups: Dict[tuple, List[_ClientTurn]] = {}
        for ct in clients:
            ct.lr = algo.lr_for_round(int(ct.ticket.args[2]))
            schema = tuple(ct.payload)
            load = load_cache.get(schema)
            if load is None:
                load = load_cache[schema] = frozenset(self._load_keys(ct.payload))
            ct.load_keys = load
            sig = (
                ct.lr,
                schema,
                tuple((x.shape, x.dtype.str, y.shape, y.dtype.str)
                      for x, y in ct.batches),
            )
            groups.setdefault(sig, []).append(ct)

        outcomes: Dict[int, Tuple[Dict[str, Any], ClientSnapshot]] = {}
        for group in groups.values():
            self._run_group(group, baseline, outcomes)
        return [outcomes[id(ct)] for ct in clients]

    def run_or_fallback(self, jobs, baseline, attempt) -> List[Tuple[Any, Any, Any, int]]:
        """Job-aligned ``(value, error, snapshot, batch size)``: one stacked
        pass, or if it raises — it mutated nothing — every job rerun exactly
        through ``attempt(job) -> (value, error, snapshot)``."""
        try:
            results = self.run_batch(jobs, baseline)
        except Exception:  # noqa: BLE001 - fall back to the exact path
            _LOG.exception("fused batch failed; re-running %d turns one by one", len(jobs))
            return [tuple(attempt(job)) + (1,) for job in jobs]
        return [(value, None, snapshot, len(jobs)) for value, snapshot in results]

    # ------------------------------------------------------------------
    def _run_group(
        self,
        group: List[_ClientTurn],
        baseline: Dict[str, Any],
        outcomes: Dict[int, Tuple[Dict[str, Any], ClientSnapshot]],
    ) -> None:
        algo = self.algo
        K = len(group)
        load_keys = group[0].load_keys
        first_payload = group[0].payload
        shared_payload = all(ct.payload is first_payload for ct in group)
        # stacked round-start state: payload keys broadcast (on_round_start
        # overwrites the restore, so load wins) — one broadcast copy when
        # the whole group shares a dispatch epoch, else per-client rows —
        # the rest from each client's persisted snapshot (baseline on a
        # first turn)
        W: Dict[str, np.ndarray] = {}
        for key in self.state_keys:
            if key in load_keys:
                if shared_payload:
                    src = np.asarray(first_payload[key])
                    slab = np.empty((K,) + src.shape, src.dtype)
                    slab[:] = src
                    W[key] = slab
                else:
                    W[key] = np.stack(
                        [np.asarray(ct.payload[key]) for ct in group]
                    )
            else:
                rows = []
                for ct in group:
                    snap = ct.snapshot
                    if snap is not None and key in snap.model:
                        rows.append(snap.model[key])
                    else:
                        rows.append(baseline["model"][key])
                W[key] = np.stack(rows)

        lr = group[0].lr
        n_steps = len(group[0].batches)
        # a fresh optimizer per turn: its first step never reads the momentum
        # buffer it would build, so a one-step turn asks for none
        momentum = algo.momentum if n_steps > 1 else 0.0
        opt_state: Dict[str, Dict[str, np.ndarray]] = defaultdict(dict)
        for t in range(n_steps):
            x = np.stack([ct.batches[t][0] for ct in group])
            y = np.stack([ct.batches[t][1] for ct in group])
            if x.ndim > 3:  # FederatedModel.features' flatten
                x = x.reshape(K, x.shape[1], -1)

            # forward, keeping what backward needs (linear inputs, relu masks)
            h = x
            saved: List[np.ndarray] = []
            for op in self.plan:
                if op[0] == "linear":
                    saved.append(h)
                    h = F._linear_fw(h, W[op[1]], W[op[2]])
                else:
                    h, mask = F._relu_fw(h)
                    saved.append(mask)
            loss, log_probs, picked = F._cross_entropy_fw(h, y)
            n = h.shape[1]
            for ct, loss_k, correct_k in zip(
                group, loss.tolist(), F._correct_count(h, y).tolist()
            ):
                ct.total_loss += loss_k * n
                ct.samples += n
                ct.correct += correct_k
                ct.batches_run += 1

            # backward + SGD, walking the plan top-down: a layer's three
            # gradients are taken before its parameters step (autograd computes
            # every grad before optimizer.step touches anything), and the
            # first layer's input takes none
            grad = F._cross_entropy_bw(log_probs, picked)
            for i in reversed(range(len(self.plan))):
                op = self.plan[i]
                if op[0] == "relu":
                    grad = F._relu_bw(grad, saved[i])
                    continue
                w, b = W[op[1]], W[op[2]]
                g_x, g_w, g_b = F._linear_bw(saved[i], w, b, grad, need_gx=i > 0)
                SGD._update(w, g_w, opt_state[op[1]], lr, momentum, algo.weight_decay)
                SGD._update(b, g_b, opt_state[op[2]], lr, momentum, algo.weight_decay)
                grad = g_x

        algo_state = algo.export_client_state()
        for k, ct in enumerate(group):
            stats = {
                "loss": ct.total_loss / max(ct.samples, 1),
                "accuracy": ct.correct / max(ct.samples, 1),
                "batches": float(ct.batches_run),
                "samples": float(ct.samples),
            }
            # rows are handed out as views: the stacked slabs are exactly the
            # K per-client states laid out contiguously, so slicing costs no
            # copy and pins no extra bytes; nothing downstream mutates result
            # states (replace-not-mutate contract), and snapshot rows are
            # copied into stable storage by the arena on store.put
            state = {key: W[key][k] for key in self.state_keys}
            result = {
                "state": state,
                "meta": {"num_samples": int(len(ct.view))},
                "stats": stats,
                "version": ct.version,
            }
            model_state = OrderedDict((key, W[key][k]) for key in self.persistent)
            if ct.snapshot is not None:
                fault_rng = ct.snapshot.fault_rng
                turns = ct.snapshot.turns
            else:
                # first turn and the fault stream was never consumed: store
                # None — begin_client_turn re-derives the identical stream
                # lazily, saving a SeedSequence spin-up per first turn
                fault_rng = None
                turns = 0
            snapshot = ClientSnapshot(
                algo=algo_state if not algo_state else algo.export_client_state(),
                model=model_state,
                fault_rng=fault_rng,
                loader_rng=ct.rng.bit_generator.state,
                compressor=None,
                dp=None,
                stats=dict(stats),
                turns=turns + 1,
            )
            outcomes[id(ct)] = (result, snapshot)
