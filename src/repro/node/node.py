"""Node implementation: role dispatch for every coordination pattern.

The engine spawns one Node per :class:`~repro.topology.base.NodeSpec` inside
a thread actor and calls ``run_round`` on all of them concurrently; group
communicator operations inside align across nodes by construction (every
role executes matching broadcast/gather/mixing sequences).
"""

from __future__ import annotations

import copy
import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.algorithms.base import Algorithm
from repro.comm.base import Communicator
from repro.compression.base import Compressor
from repro.data.dataloader import DataLoader
from repro.data.dataset import Dataset
from repro.models.base import FederatedModel
from repro.node.codec import decode_update, encode_update
from repro.nn import functional as F
from repro.nn.serialization import state_dict_to_vector, vector_to_state_dict
from repro.nn.tensor import Tensor, no_grad
from repro.engine.client_state import ClientSnapshot
from repro.privacy.dp import DifferentialPrivacy
from repro.telemetry.tracer import NOOP_TRACER
from repro.topology.base import NodeRole, NodeSpec
from repro.utils.logging import get_logger
from repro.utils.seeding import DATA_STREAM, FAULT_STREAM, client_rng

__all__ = ["Node"]

_LOG = get_logger("node")


class Node:
    """One federation participant; all round protocols live here."""

    def __init__(
        self,
        spec: NodeSpec,
        model: FederatedModel,
        algorithm: Algorithm,
        train_dataset: Optional[Dataset] = None,
        test_dataset: Optional[Dataset] = None,
        batch_size: int = 32,
        seed: int = 0,
        dp: Optional[DifferentialPrivacy] = None,
        compressor: Optional[Compressor] = None,
        outer_compressor: Optional[Compressor] = None,
        drop_prob: float = 0.0,
        straggler_prob: float = 0.0,
        straggler_delay: float = 0.0,
        attack: Optional[Any] = None,
        attacker_ids: Any = (),
    ) -> None:
        self.spec = spec
        self.model = model
        self.algorithm = algorithm
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.batch_size = batch_size
        self.dp = dp
        self.compressor = compressor
        self.outer_compressor = outer_compressor if outer_compressor is not None else compressor
        self.drop_prob = float(drop_prob)
        self.straggler_prob = float(straggler_prob)
        self.straggler_delay = float(straggler_delay)
        # byzantine roles: the attack applies only on turns where the
        # *logical client id* is in attacker_ids — pool workers and broker
        # workers flip between honest and byzantine per adopted client
        self.attack = attack
        self.attacker_ids = frozenset(int(i) for i in attacker_ids)
        self.comms: Dict[str, Communicator] = {}
        self.seed = int(seed)
        # random streams are keyed by the *logical client id* — the data
        # shard this node trains — never by node index or worker slot, so
        # draws are identical whether the client runs on a dedicated node
        # or a shared pool worker (non-trainers get a collision-free
        # negative id; their streams are never drawn from)
        self.client_id = spec.shard if spec.shard is not None else -(spec.index + 1)
        self._rng = client_rng(seed, self.client_id, FAULT_STREAM)
        self._loader_rng = client_rng(seed, self.client_id, DATA_STREAM)
        self.global_state: Optional[Dict[str, np.ndarray]] = None
        self.last_train_stats: Dict[str, float] = {}
        # swapped for a recording tracer by the Telemetry callback at setup
        self.tracer = NOOP_TRACER
        self._local_setup_done = False
        # pristine plugin state, captured before any use: what a first-turn
        # pool client starts from (reset() is not equivalent — e.g. DGC's
        # sampling stream survives reset, a fresh instance's does not)
        self._comp_pristine = compressor.export_state() if compressor is not None else None
        self._dp_pristine = dp.export_state() if dp is not None else None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def role(self) -> NodeRole:
        return self.spec.role

    @property
    def num_samples(self) -> int:
        return len(self.train_dataset) if self.train_dataset is not None else 0

    @property
    def is_attacker(self) -> bool:
        """Is the *current* logical client byzantine?  Re-evaluated per pool
        turn, since ``begin_client_turn`` re-keys ``client_id``."""
        return self.attack is not None and self.client_id in self.attacker_ids

    def train_loader(self) -> Any:
        if self.train_dataset is None:
            raise RuntimeError(f"node {self.name} has no training data")
        loader = DataLoader(self.train_dataset, self.batch_size, shuffle=True, rng=self._loader_rng)
        if self.is_attacker and self.attack.corrupts_data:
            from repro.robust.attacks import PoisonedLoader

            # wraps after the batch is drawn: honest clients' shuffle
            # streams advance identically whether or not an attack is set
            return PoisonedLoader(loader, self.attack)
        return loader

    def setup(self) -> None:
        for comm in self.comms.values():
            comm.setup()
        self.setup_local()

    def setup_local(self) -> None:
        """Algorithm/state initialization without touching communicators.

        The asynchronous scheduler runtime moves updates through actor
        futures instead of collective operations, so it sets nodes up
        without binding any communicator group.
        """
        if self._local_setup_done:
            return
        if self.role.aggregates():
            self.algorithm.setup_server(self)
            self.global_state = self.model.state_dict()
        if self.role.trains():
            self.algorithm.setup_client(self)
        self._local_setup_done = True

    # ------------------------------------------------------------------
    # client-pool turns: adopt / hand back a logical client's identity
    # ------------------------------------------------------------------
    def pool_baseline(self) -> Dict[str, Any]:
        """Pristine post-setup state a first-turn client starts from.

        Captured once per pool (all workers are constructed identically from
        the same seeded factories, so any worker's baseline serves them all).
        """
        assert self._local_setup_done, "capture the baseline after setup_local"
        return {
            "algo": self.algorithm.export_client_state(),
            "model": self.model.state_dict(),
        }

    def begin_client_turn(
        self,
        client_id: int,
        snapshot: Optional[ClientSnapshot],
        train_dataset: Optional[Dataset],
        baseline: Dict[str, Any],
    ) -> None:
        """Become logical client ``client_id`` for one turn.

        Every piece of per-client state is overwritten — algorithm attrs,
        persistent model entries, plugin state, random streams, the data
        view — so worker reuse can never leak one client into another, even
        after a failed turn.  ``snapshot=None`` is a client's first turn: it
        starts from the pool ``baseline`` with streams derived fresh from
        ``(run_seed, client_id)``.
        """
        self.client_id = int(client_id)
        self.train_dataset = train_dataset
        keys = self.algorithm.persistent_model_keys(self.model)
        if snapshot is None:
            self._rng = client_rng(self.seed, client_id, FAULT_STREAM)
            self._loader_rng = client_rng(self.seed, client_id, DATA_STREAM)
            self.algorithm.import_client_state(copy.deepcopy(baseline["algo"]))
            model_state = baseline["model"]
            self.last_train_stats = {}
            if self.compressor is not None:
                self.compressor.reset()
                self.compressor.import_state(copy.deepcopy(self._comp_pristine))
            if self.dp is not None:
                self.dp.import_state(copy.deepcopy(self._dp_pristine))
        else:
            if snapshot.fault_rng is None:
                # stream never consumed since derivation (e.g. a fused turn):
                # re-deriving is bit-identical to restoring the initial state
                self._rng = client_rng(self.seed, client_id, FAULT_STREAM)
            else:
                self._rng.bit_generator.state = snapshot.fault_rng
            # the generators are reused, not rebuilt: a snapshot holds the
            # complete PCG64 state, so assigning it leaves nothing of the
            # previous client, and seeding a fresh generator from OS entropy
            # only to overwrite it cost more than the rest of the swap
            self._loader_rng.bit_generator.state = snapshot.loader_rng
            self.algorithm.import_client_state(snapshot.algo)
            model_state = snapshot.model
            self.last_train_stats = dict(snapshot.stats)
            if self.compressor is not None and snapshot.compressor is not None:
                self.compressor.import_state(snapshot.compressor)
            if self.dp is not None and snapshot.dp is not None:
                self.dp.import_state(snapshot.dp)
        if keys is None:
            restore = model_state
        else:
            restore = {k: model_state[k] for k in keys if k in model_state}
        if restore:
            self.model.load_state_dict(restore, strict=False)

    def fusion_context(self) -> Optional[Dict[str, Any]]:
        """What the fused turn runner needs to mirror this
        node's ``local_update`` as batched tensor ops — or ``None`` when the
        configuration rules exact fusion out (codec/DP plugins transform
        per-client updates; algorithms/models vet themselves via
        ``Algorithm.fusion_safe`` / ``FederatedModel.fused_plan``)."""
        if self.attack is not None:
            # byzantine turns diverge per client; the fused fast path
            # cannot reproduce them, so attacked runs stay strictly per-turn
            return None
        if self.compressor is not None or self.dp is not None:
            return None
        if not self.algorithm.fusion_safe():
            return None
        plan = self.model.fused_plan()
        if plan is None:
            return None
        return {
            "plan": plan,
            "state_keys": list(self.model.state_dict().keys()),
            "persistent_keys": self.algorithm.persistent_model_keys(self.model),
            "algorithm": self.algorithm,
            "seed": self.seed,
            "batch_size": self.batch_size,
        }

    def end_client_turn(self, turns: int = 0) -> ClientSnapshot:
        """Hand the current client's identity back as a snapshot."""
        keys = self.algorithm.persistent_model_keys(self.model)
        if keys is None:
            model_state = self.model.state_dict()
        elif keys:
            full = self.model.state_dict()
            model_state = OrderedDict((k, full[k]) for k in keys)
        else:
            model_state = OrderedDict()
        snapshot = ClientSnapshot(
            algo=self.algorithm.export_client_state(),
            model=model_state,
            fault_rng=self._rng.bit_generator.state,
            loader_rng=self._loader_rng.bit_generator.state,
            compressor=self.compressor.export_state() if self.compressor is not None else None,
            dp=self.dp.export_state() if self.dp is not None else None,
            stats=dict(self.last_train_stats),
            turns=int(turns) + 1,
        )
        self.train_dataset = None  # release the data view with the turn
        return snapshot

    def run_client_turn(
        self,
        client_id: int,
        snapshot: Optional[ClientSnapshot],
        train_dataset: Optional[Dataset],
        baseline: Dict[str, Any],
        method: str,
        args: tuple = (),
        kwargs: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[Any, Optional[Exception], ClientSnapshot]:
        """One whole client turn: swap in -> call ``method`` -> swap out.

        Returns ``(value, error, new_snapshot)``.  The swap-out happens even
        when the method raised — the client keeps whatever state the failure
        left (dedicated-node semantics), and the next swap-in fully
        re-initializes this node either way, so reuse cannot leak state
        across clients.  Every substrate that serves turns from a shared
        node (the memory broker's actors, worker processes) calls this.
        """
        tracer = self.tracer
        with tracer.span("pool.swap_in", cat="pool", client=client_id):
            self.begin_client_turn(client_id, snapshot, train_dataset, baseline)
        value, error = None, None
        try:
            with tracer.span("pool.turn", cat="pool", client=client_id, method=method):
                value = getattr(self, method)(*args, **(kwargs or {}))
        except Exception as exc:  # noqa: BLE001 - handed to the caller with the snapshot
            error = exc
        turns = snapshot.turns if snapshot is not None else 0
        with tracer.span("pool.swap_out", cat="pool", client=client_id):
            return value, error, self.end_client_turn(turns)

    def shutdown(self) -> None:
        for gname, comm in self.comms.items():
            try:
                comm.shutdown()
            except Exception as exc:  # noqa: BLE001 - a comm that failed setup
                # must not block the rest of the fleet's teardown
                _LOG.warning("comm %s shutdown failed on %s: %s", gname, self.name, exc)

    def comm_stats(self) -> Dict[str, Dict[str, float]]:
        return {name: c.stats.snapshot() for name, c in self.comms.items()}

    # ------------------------------------------------------------------
    # round dispatch
    # ------------------------------------------------------------------
    def run_round(self, round_idx: int, pattern: str, participate: bool = True) -> Dict[str, Any]:
        start = time.perf_counter()
        if pattern == "server":
            stats = self._round_server(round_idx, participate)
        elif pattern == "gossip":
            stats = self._round_gossip(round_idx, participate)
        elif pattern == "hierarchical":
            stats = self._round_hierarchical(round_idx, participate)
        else:
            raise ValueError(f"unknown coordination pattern {pattern!r}")
        stats["round_seconds"] = time.perf_counter() - start
        return stats

    # -- centralized: broadcast -> train -> gather -> aggregate ------------
    def _round_server(self, round_idx: int, participate: bool) -> Dict[str, Any]:
        comm = self.comms["inner"]
        if self.role.aggregates():
            assert self.global_state is not None
            payload = self.algorithm.server_payload(self.global_state)
            comm.broadcast_state(payload, src=0)
            entries = comm.gather_states(OrderedDict(), meta={"num_samples": 0}, dst=0)
            assert entries is not None
            decoded = self._decode_entries(entries, self.compressor, self.global_state)
            self.global_state = self.algorithm.aggregate(decoded, self.global_state, round_idx)
            return {"aggregated": len(decoded) - 1}
        return self._trainer_turn(comm, round_idx, participate, self.compressor)

    def _trainer_turn(
        self, comm: Communicator, round_idx: int, participate: bool, compressor: Optional[Compressor]
    ) -> Dict[str, Any]:
        payload = comm.broadcast_state(None, src=0)
        dropped = (not participate) or (self.drop_prob > 0 and self._rng.random() < self.drop_prob)
        if dropped:
            # non-participants still join the collective with a zero-weight
            # placeholder so group operations stay aligned
            comm.gather_states(OrderedDict(), meta={"num_samples": 0}, dst=0)
            return {"participated": False}
        if self.straggler_prob > 0 and self._rng.random() < self.straggler_prob:
            time.sleep(self.straggler_delay)
        wire, meta, stats, _ = self._train_and_encode(payload, round_idx, compressor)
        comm.gather_states(wire, meta=meta, dst=0)
        self.algorithm.on_round_end(self, round_idx)
        self.last_train_stats = stats
        return {"participated": True, **stats}

    def _train_and_encode(
        self,
        payload: Dict[str, np.ndarray],
        round_idx: int,
        compressor: Optional[Compressor],
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any], Dict[str, float], Optional[Dict[str, np.ndarray]]]:
        """The one training pipeline both execution modes share:
        ``on_round_start`` → ``local_train`` → ``compute_update`` →
        DP/compression encoding.  Returns (wire_state, meta, stats,
        reference); keeping sync and async on this single path is what makes
        their plugin semantics identical by construction."""
        tracer = self.tracer
        with tracer.span("node.train", cat="node", client=self.client_id, round=round_idx):
            self.algorithm.on_round_start(self, payload, round_idx)
            stats = self.algorithm.local_train(self, round_idx)
            update, meta = self.algorithm.compute_update(self, round_idx)
        reference = (
            self.algorithm._strip_payload(payload)
            if self.algorithm.uploads_full_state
            else None
        )
        if self.is_attacker and self.attack.corrupts_update:
            # after compute_update, before the codec: poisoned uploads ride
            # compression/DP/delta encoding exactly like honest ones
            update = self.attack.corrupt_update(update, reference)
        with tracer.span("codec.encode", cat="codec", client=self.client_id) as span:
            wire, extra = encode_update(update, compressor, self.dp, reference)
            if tracer.enabled:
                span.set(bytes=int(sum(np.asarray(v).nbytes for v in wire.values())))
        meta = dict(meta)
        meta.update(extra)
        return wire, meta, stats, reference

    def _decode_entries(
        self,
        entries: List[Dict[str, Any]],
        compressor: Optional[Compressor],
        reference: Optional[Dict[str, np.ndarray]] = None,
    ) -> List[Dict[str, Any]]:
        out = []
        reference_vectors: Dict[Tuple[str, ...], np.ndarray] = {}  # one flatten for all entries
        with self.tracer.span("codec.decode", cat="codec", node=self.name,
                              entries=len(entries)):
            for e in entries:
                state = decode_update(e["state"], e.get("meta", {}), compressor, reference,
                                      reference_vectors)
                out.append({"rank": e["rank"], "state": state, "meta": e.get("meta", {})})
        return out

    # -- gossip: train -> exchange with neighbors -> mix --------------------
    def _round_gossip(self, round_idx: int, participate: bool) -> Dict[str, Any]:
        comm = self.comms["inner"]
        self.algorithm.on_round_start(self, self.model.state_dict(), round_idx)
        stats = self.algorithm.local_train(self, round_idx) if participate else {}
        state = self.model.state_dict()
        vec, spec = state_dict_to_vector(state)

        mixing = dict(self.spec.mixing)
        my_rank = self.spec.inner.rank if self.spec.inner else 0
        neighbors = sorted(j for j in mixing if j != my_rank)
        # symmetric exchange: send to every neighbor, then receive from each;
        # the receiver applies *its own* mixing weight for the sender
        for j in neighbors:
            comm.send({"vec": vec, "src": my_rank}, dst=j, tag=round_idx)
        mixed = vec * mixing.get(my_rank, 0.0)
        received = 0
        for _ in neighbors:
            msg = comm.recv(src=-1, tag=round_idx)
            sender = int(msg["src"])
            mixed = mixed + np.asarray(msg["vec"]) * float(mixing[sender])
            received += 1
        new_state = vector_to_state_dict(mixed.astype(np.float32), spec)
        for k, v in state.items():  # integer buffers stay local
            if not np.issubdtype(v.dtype, np.floating):
                new_state[k] = v
        self.model.load_state_dict(new_state, strict=False)
        comm.barrier()
        self.last_train_stats = stats
        return {"participated": participate, "neighbors": received, **stats}

    # -- hierarchical: outer root <-> site heads <-> inner trainers ----------
    def _round_hierarchical(self, round_idx: int, participate: bool) -> Dict[str, Any]:
        if self.role is NodeRole.AGGREGATOR:  # global root
            outer = self.comms["outer"]
            assert self.global_state is not None
            payload = self.algorithm.server_payload(self.global_state)
            outer.broadcast_state(payload, src=0)
            entries = outer.gather_states(OrderedDict(), meta={"num_samples": 0}, dst=0)
            assert entries is not None
            decoded = self._decode_entries(entries, self.outer_compressor, self.global_state)
            self.global_state = self.algorithm.aggregate(decoded, self.global_state, round_idx)
            return {"aggregated_sites": len(decoded) - 1}
        if self.role is NodeRole.RELAY:  # site head
            outer = self.comms["outer"]
            inner = self.comms["inner"]
            payload = outer.broadcast_state(None, src=0)
            inner.broadcast_state(payload, src=0)
            entries = inner.gather_states(OrderedDict(), meta={"num_samples": 0}, dst=0)
            assert entries is not None
            reference = self.algorithm._strip_payload(payload)
            decoded = self._decode_entries(entries, self.compressor, reference)
            site_state = self.algorithm.aggregate(decoded, reference, round_idx)
            site_samples = int(sum(e["meta"].get("num_samples", 0) for e in decoded))
            # compression applies only on the slow cross-facility link
            # (paper §3.4.5), delta-coded against the round's global state
            site_ref = reference if self.algorithm.uploads_full_state else None
            wire, extra = encode_update(site_state, self.outer_compressor, None, site_ref)
            meta = {"num_samples": site_samples, **extra}
            outer.gather_states(wire, meta=meta, dst=0)
            return {"site_samples": site_samples, "site_clients": len(decoded) - 1}
        # trainer inside a site
        return self._trainer_turn(self.comms["inner"], round_idx, participate, self.compressor)

    # ------------------------------------------------------------------
    # scheduler-driven (asynchronous) execution
    # ------------------------------------------------------------------
    def local_update(
        self, payload: Dict[str, np.ndarray], version: int, round_idx: int = 0
    ) -> Dict[str, Any]:
        """One standalone local-training pass for the async scheduler runtime.

        Unlike :meth:`run_round` this performs no communicator operations:
        the scheduler hands in the server payload directly and collects the
        update through the actor future.  ``version`` is the global model
        version the payload was taken at; it rides along so the server can
        compute staleness on arrival.  DP and compression plugins still
        apply — the update goes through the same :meth:`_train_and_encode`
        pipeline as the wire protocol (then decodes locally, since there is
        no wire), so plugin semantics are identical in both execution modes.
        """
        wire, meta, stats, reference = self._train_and_encode(payload, round_idx, self.compressor)
        with self.tracer.span("codec.decode", cat="codec", client=self.client_id):
            state = decode_update(wire, meta, self.compressor, reference)
        for key in ("compressed", "comp_meta", "original_bytes", "spec", "delta_coded"):
            meta.pop(key, None)  # wire-format details; the state is decoded
        self.algorithm.on_round_end(self, round_idx)
        self.last_train_stats = stats
        meta.setdefault("num_samples", int(self.num_samples))
        return {"state": state, "meta": meta, "stats": stats, "version": int(version)}

    # ------------------------------------------------------------------
    # decentralized async: gossip train/exchange/mix without collectives
    # ------------------------------------------------------------------
    def gossip_update(self, payload: Mapping[str, np.ndarray], step: int) -> Dict[str, Any]:
        """One local training step from ``payload`` (this peer's mixed state)
        for the decentralized async runtime.

        No codec here: in gossip the compressor/DP plugins apply to the
        *neighbor exchange* (:meth:`gossip_publish`), not to training — a
        peer's own state never crosses a link on this path.
        """
        with self.tracer.span("node.train", cat="node", client=self.client_id, round=step):
            self.algorithm.on_round_start(self, dict(payload), step)
            stats = self.algorithm.local_train(self, step)
            self.algorithm.on_round_end(self, step)
        self.last_train_stats = stats
        if self.is_attacker and self.attack.corrupts_update:
            # a byzantine peer *becomes* its poisoned state: subsequent
            # publishes and mixes all start from the corrupted model
            corrupted = self.attack.corrupt_update(
                self.model.state_dict(), self.algorithm._strip_payload(dict(payload))
            )
            self.model.load_state_dict(corrupted, strict=False)
        return {
            "state": self.model.state_dict(),
            "stats": stats,
            "num_samples": int(self.num_samples),
        }

    def gossip_publish(self, reference: Optional[Dict[str, np.ndarray]]) -> Dict[str, Any]:
        """Encode this peer's current model state for a neighbor push.

        Delta-coded against ``reference`` — the replica of what this peer
        last published, which every receiver tracks (the CHOCO-SGD scheme)
        — through the peer's compressor and, if configured, DP plugin;
        decoded right back (there is no real wire) so the caller gets
        exactly what receivers would reconstruct, plus the byte count the
        wire form would have cost.
        """
        state = self.model.state_dict()
        with self.tracer.span("codec.encode", cat="codec", client=self.client_id) as span:
            wire, meta = encode_update(state, self.compressor, self.dp, reference)
            nbytes = int(sum(np.asarray(v).nbytes for v in wire.values()))
            span.set(bytes=nbytes)
        with self.tracer.span("codec.decode", cat="codec", client=self.client_id):
            decoded = decode_update(wire, meta, self.compressor, reference)
        return {"state": decoded, "bytes": nbytes, "num_samples": int(self.num_samples)}

    def gossip_adopt(self, state: Mapping[str, np.ndarray]) -> None:
        """Install a mixed state as this peer's model (the async counterpart
        of the synchronous gossip round's post-mix ``load_state_dict``)."""
        self.model.load_state_dict(dict(state), strict=False)

    # ------------------------------------------------------------------
    # hierarchical async: site-head <-> root exchange without collectives
    # ------------------------------------------------------------------
    def adopt_global(self, payload: Mapping[str, np.ndarray]) -> None:
        """Install a freshly dispatched global payload as this head's site
        model (the async counterpart of the head's inner broadcast)."""
        assert self.role.aggregates(), f"node {self.name} does not aggregate"
        self.global_state = self.algorithm._strip_payload(dict(payload))

    def site_upload(
        self, reference: Optional[Dict[str, np.ndarray]], num_samples: int
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Encode this site head's aggregated site model for the slow outer
        link: delta-coded against ``reference`` (the global state the site
        was dispatched from), through the head's ``outer_compressor`` and —
        if one is configured on the head — its DP plugin, exactly like the
        synchronous hierarchical round (paper §3.4.5)."""
        assert self.role.aggregates() and self.global_state is not None
        tracer = self.tracer
        with tracer.span("codec.encode", cat="codec", site_head=self.name) as span:
            wire, extra = encode_update(self.global_state, self.outer_compressor, self.dp, reference)
            if tracer.enabled:
                span.set(bytes=int(sum(np.asarray(v).nbytes for v in wire.values())))
        meta = {"num_samples": int(num_samples), **extra}
        return wire, meta

    def decode_site_upload(
        self,
        wire_state: Dict[str, np.ndarray],
        meta: Dict[str, Any],
        reference: Optional[Dict[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """Root-side inverse of :meth:`site_upload` (same outer compressor)."""
        with self.tracer.span("codec.decode", cat="codec", node=self.name):
            return decode_update(wire_state, meta, self.outer_compressor, reference)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, state: Optional[Mapping[str, np.ndarray]] = None, max_batches: Optional[int] = None) -> Tuple[float, float]:
        """(loss, accuracy) of ``state`` (default: the node's current model)
        on the node's test dataset."""
        if self.test_dataset is None:
            raise RuntimeError(f"node {self.name} has no test data")
        restore: Optional[Dict[str, np.ndarray]] = None
        if state is not None:
            restore = self.model.state_dict()
            self.model.load_state_dict(self.algorithm._strip_payload(dict(state)), strict=False)
        was_training = self.model.training
        self.model.eval()
        loader = DataLoader(self.test_dataset, self.batch_size)
        total_loss, total, correct = 0.0, 0, 0
        with no_grad():
            for b, (x, y) in enumerate(loader):
                if max_batches is not None and b >= max_batches:
                    break
                logits = self.model(Tensor(x))
                loss = F.cross_entropy(logits, y)
                total_loss += float(loss.item()) * len(y)
                correct += int(F._correct_count(logits.data, y))
                total += len(y)
        self.model.train(was_training)
        if restore is not None:
            self.model.load_state_dict(restore, strict=False)
        return total_loss / max(total, 1), correct / max(total, 1)
