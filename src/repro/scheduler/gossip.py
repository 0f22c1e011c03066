"""Decentralized asynchronous gossip: serverless pairwise averaging.

The third and final topology tier of the async runtime (after the flat
server policies and the hierarchical coordinator): ring, p2p-mesh, and
custom-graph federations run *without* a coordinator, in the spirit of
AD-PSGD.  Each peer loops

    train locally → publish its state to a sampled neighbor set →
    mix whatever neighbor states have arrived → train again

under the same virtual-time event queue as every other policy.  Training is
real (each step runs ``Node.gossip_update`` on the peer's actor thread);
*time* is virtual: the base heterogeneity model stamps each peer's compute,
and a second, per-**edge** model stamps every neighbor message — so slow
links, not just slow devices, shape the dynamics, and lost messages model
link faults rather than client crashes.

Knobs:

* ``neighbor_selection`` — who a publish reaches: ``all`` neighbors,
  ``random_k`` uniformly sampled ones, or ``pairwise`` (one random partner
  per step — classic randomized gossip);
* ``mixing`` — receiver-side weights: the ``topology``'s own mixing matrix
  or ``metropolis_hastings`` weights computed from the graph;
* ``barrier`` — ``True`` reproduces the synchronous gossip round (every
  peer trains, every message lands, everyone mixes at the slowest arrival)
  under the same clock, so sync vs. async gossip compare head-to-head.

States travel through the peer's compressor/DP codec (``Node.
gossip_publish``), delta-coded against the peer's previously *published*
replica — the CHOCO-SGD trick: receivers track what the sender last sent,
so lossy codecs compress small differences instead of raw weights.

Staleness: a message carries the sender's step count; by mix time the
sender may have produced newer states, and the discount attenuates the
mixing weight accordingly, with the freed mass returning to the receiver's
self-weight (rows stay stochastic, so averaging never diverges).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.serialization import clone_state, is_float, state_average
from repro.scheduler.base import SCHEDULERS, Scheduler
from repro.scheduler.events import PendingUpdate
from repro.scheduler.heterogeneity import HeterogeneityModel
from repro.topology.base import stationary_distribution
from repro.utils.logging import get_logger

__all__ = ["GossipScheduler"]

_LOG = get_logger("scheduler")

#: real-seconds timeout for one local training / codec call
_TRAIN_TIMEOUT = 600.0

_SELECTION_MODES = ("all", "random_k", "pairwise")
_MIXING_MODES = ("topology", "metropolis_hastings")


@SCHEDULERS.register("gossip_async", "gossip", "ad_psgd")
class GossipScheduler(Scheduler):
    """Asynchronous (or barrier) gossip over a decentralized topology.

    Parameters
    ----------
    neighbor_selection:
        ``all`` | ``random_k`` | ``pairwise`` — which neighbors a peer's
        publish reaches.
    neighbor_k:
        Targets per publish under ``random_k`` (clamped to the degree).
    mixing:
        ``topology`` (the topology's declared mixing weights) or
        ``metropolis_hastings`` (recomputed from the graph; symmetric and
        doubly stochastic under any degree skew).
    barrier:
        ``True`` runs synchronous gossip rounds under the same virtual
        clock: every peer trains, all messages land, everyone mixes at the
        slowest arrival.  The baseline arm of sync-vs-async comparisons.
    edge_heterogeneity:
        Latency/dropout model of the links, sampled per *directed edge*
        (``client_spread`` gives persistently slow links; ``dropout`` is
        message loss).  The base ``heterogeneity`` kwarg keeps modelling
        per-peer compute.
    track_consensus:
        Record the RMS distance of peer models from consensus on every
        metrics record (costs one pass over the ledger per record).
    """

    name = "gossip_async"
    patterns = ("gossip",)
    requires_aggregator = False

    def __init__(
        self,
        neighbor_selection: str = "all",
        neighbor_k: int = 1,
        mixing: str = "topology",
        barrier: bool = False,
        edge_heterogeneity: Optional[Any] = None,
        track_consensus: bool = True,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        neighbor_selection = str(neighbor_selection)
        if neighbor_selection not in _SELECTION_MODES:
            raise ValueError(
                f"unknown neighbor_selection {neighbor_selection!r}; have {_SELECTION_MODES}"
            )
        mixing = str(mixing)
        if mixing not in _MIXING_MODES:
            raise ValueError(f"unknown mixing {mixing!r}; have {_MIXING_MODES}")
        if neighbor_k < 1:
            raise ValueError("neighbor_k must be >= 1")
        self.neighbor_selection = neighbor_selection
        self.neighbor_k = int(neighbor_k)
        self.mixing = mixing
        self.barrier = bool(barrier)
        self.track_consensus = bool(track_consensus)
        self._edge_hetero_cfg = edge_heterogeneity
        self.edge_hetero: Optional[HeterogeneityModel] = None

        # runtime ledger, populated by bind()/run()
        self.peers: List[int] = []
        self.peer_states: Dict[int, Dict[str, np.ndarray]] = {}
        self.published: Dict[int, Dict[str, np.ndarray]] = {}
        self.steps: Dict[int, int] = {}
        self.inbox: Dict[int, List[Dict[str, Any]]] = {}
        self.edge_bytes: Dict[Tuple[int, int], int] = {}
        self.msgs_sent = 0
        self.msgs_lost = 0
        self.mixed_in = 0  # neighbor states merged across all mixes
        self._w: Optional[np.ndarray] = None
        self._pi: Optional[np.ndarray] = None
        self._neighbors: Dict[int, List[int]] = {}
        self._edge_ids: Dict[Tuple[int, int], int] = {}
        self._edge_count: Dict[Tuple[int, int], int] = {}
        self._gossip_rng: Optional[np.random.Generator] = None
        self._bytes_seen = 0
        self._edge_seen: Dict[Tuple[int, int], int] = {}
        # moving-target defense: per-epoch overlay resampling (bind() wires
        # these from the engine's mtd spec; None means a static topology)
        self.mtd: Optional[Any] = None
        self._mtd_epoch = 0
        self._mtd_every = 0
        self._mtd_applied_mark = 0

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def bind(self, engine: "Engine", **scope: Any) -> "GossipScheduler":  # noqa: F821
        if scope:
            raise ValueError("a gossip scheduler cannot be bound in site scope")
        if self.engine is engine and self.peer_states:
            # re-entry from a follow-up run_async(): the ledger continues
            return self
        super().bind(engine)
        bad = next(
            (
                n.algorithm
                for n in engine.nodes
                if n.role.trains() and not n.algorithm.uploads_full_state
            ),
            None,
        )
        if bad is not None:
            raise ValueError(
                f"scheduler {self.name!r} mixes raw model states and needs a "
                f"full-state-uploading algorithm; {bad.name!r} uploads "
                "deltas/variates"
            )
        topo = engine.topology
        # peers are engine *node indices* (the graph/mixing-matrix id space),
        # pinned explicitly so they stay correct regardless of the id space
        # the flat binding hands out (decentralized runs are dedicated-node
        # by construction: every peer owns a live model replica)
        self.peers = [n.spec.index for n in engine.nodes if n.role.trains()]
        self.clients = list(self.peers)
        neighbor_map = topo.neighbor_map()
        self._neighbors = {
            p: [j for j in neighbor_map.get(p, []) if j != p] for p in self.peers
        }
        empty = [p for p, ns in self._neighbors.items() if not ns]
        if empty:
            raise ValueError(f"gossip peers {empty} have no neighbors to exchange with")
        if self.mixing == "metropolis_hastings":
            self._w = topo.metropolis_hastings_matrix()
        else:
            self._w = topo.mixing_matrix()
        # consensus weights come from the matrix actually driving the mix
        # (MH weights may disagree with the topology's declared matrix)
        self._pi = stationary_distribution(self._w)
        seed = int(self.seed if self.seed is not None else engine.seed)
        # a distinct stream for the links so edge/compute draws never alias
        self.edge_hetero = HeterogeneityModel.from_config(
            self._edge_hetero_cfg, seed=seed + 104729
        )
        self._gossip_rng = np.random.default_rng((seed, 0x9055))
        mtd_spec = getattr(engine, "mtd", None)
        if mtd_spec is not None:
            from repro.robust.mtd import MovingTargetDefense  # cycle guard

            self.mtd = MovingTargetDefense(
                self.peers,
                degree=int(mtd_spec.degree),
                seed=int(mtd_spec.seed if mtd_spec.seed is not None else seed),
            )
            self._mtd_every = int(mtd_spec.reshuffle_every or len(self.peers))
            self._install_mtd_epoch()
        else:
            # static-topology edge ids keep their historical enumeration so
            # existing runs stay byte-identical; MTD uses stable u*span+v ids
            # instead (any pair can become an edge in some epoch)
            self._edge_ids = {
                edge: i
                for i, edge in enumerate(
                    sorted((u, v) for u in self.peers for v in self._neighbors[u])
                )
            }
        self.steps = {p: 0 for p in self.peers}
        self.inbox = {p: [] for p in self.peers}
        _LOG.info(
            "gossip scheduler bound: %d peers, %d directed edges, "
            "selection=%s mixing=%s barrier=%s mtd=%s",
            len(self.peers), sum(len(ns) for ns in self._neighbors.values()),
            self.neighbor_selection, self.mixing, self.barrier, self.mtd is not None,
        )
        return self

    def _install_mtd_epoch(self) -> None:
        """Adopt the overlay sampled for the current MTD epoch."""
        assert self.mtd is not None
        neighbor_map, w = self.mtd.sample(self._mtd_epoch)
        self._neighbors = {
            p: [j for j in neighbor_map.get(p, []) if j != p] for p in self.peers
        }
        self._w = w
        self._pi = stationary_distribution(w)

    def _maybe_reshuffle(self) -> None:
        """Advance the MTD epoch once enough updates have applied."""
        if self.mtd is None:
            return
        if self.applied - self._mtd_applied_mark >= self._mtd_every:
            self._mtd_applied_mark = self.applied
            self._mtd_epoch += 1
            self._install_mtd_epoch()

    def _edge_stream_id(self, edge: Tuple[int, int]) -> int:
        return self.mtd.edge_id(*edge) if self.mtd is not None else self._edge_ids[edge]

    # ------------------------------------------------------------------
    # the ledger (no server: consensus state stands in for the global model)
    # ------------------------------------------------------------------
    @property
    def global_state(self) -> Dict[str, np.ndarray]:
        return self.consensus_state()

    def consensus_state(self) -> Dict[str, np.ndarray]:
        """Mixing-weighted (stationary-distribution) average of the peer
        ledger — what repeated gossip averaging converges to."""
        assert self.peer_states and self._pi is not None
        return state_average(
            [self.peer_states[p] for p in self.peers],
            [float(self._pi[p]) for p in self.peers],
        )

    def consensus_distance(self) -> float:
        """RMS distance of peer models from the consensus average."""
        assert self.peer_states and self._pi is not None
        keys = [k for k, v in self.peer_states[self.peers[0]].items() if is_float(v)]
        vecs = np.stack(
            [
                np.concatenate(
                    [np.asarray(self.peer_states[p][k], dtype=np.float64).ravel() for k in keys]
                )
                for p in self.peers
            ]
        )
        weights = np.asarray([self._pi[p] for p in self.peers], dtype=np.float64)
        center = (weights[:, None] * vecs).sum(axis=0) / weights.sum()
        return float(np.sqrt(np.mean(np.sum((vecs - center) ** 2, axis=1))))

    def _ensure_states(self) -> None:
        if self.peer_states:
            return
        assert self.engine is not None
        for p in self.peers:
            state = dict(self.engine.nodes[self._node_pos[p]].model.state_dict())
            self.peer_states[p] = clone_state(state)
            # receivers' replica of what each peer last announced: the common
            # initial state, so the first delta-coded publish decodes exactly
            self.published[p] = clone_state(state)

    # ------------------------------------------------------------------
    # event mechanics
    # ------------------------------------------------------------------
    def _dispatch_train(self, peer: int, at: float) -> PendingUpdate:
        """Start one local step on ``peer`` from its current mixed state."""
        assert self.engine is not None and self.hetero is not None
        count = self._dispatch_count.get(peer, 0)
        self._dispatch_count[peer] = count + 1
        latency, dropped = self.hetero.sample(peer, count)
        future = None
        if not dropped:
            future = self.engine.actors[self._node_pos[peer]].submit(
                "gossip_update", self.peer_states[peer], self.steps[peer]
            )
        event = PendingUpdate(
            arrival=at + latency,
            seq=self.queue.next_seq(),
            client=peer,
            version=self.steps[peer],
            dispatched_at=at,
            dropped=dropped,
            future=future,
        )
        self.queue.push(event)
        self._in_flight[peer] = event
        return event

    def _select_targets(self, peer: int) -> List[int]:
        neighbors = self._neighbors[peer]
        assert self._gossip_rng is not None
        if self.neighbor_selection == "all":
            return list(neighbors)
        if self.neighbor_selection == "pairwise":
            return [int(self._gossip_rng.choice(neighbors))]
        k = min(self.neighbor_k, len(neighbors))
        return sorted(
            int(x) for x in self._gossip_rng.choice(neighbors, size=k, replace=False)
        )

    def _publish(self, peer: int, at: float) -> None:
        """Push ``peer``'s freshly trained state to its sampled targets.

        The state is encoded once through the peer's compressor/DP codec
        (delta-coded against its previously published replica) and the
        decoded reconstruction — what every receiver would see — is what
        travels; bytes are charged per directed edge, and each message may
        independently be delayed or lost by the edge model.
        """
        targets = self._select_targets(peer)
        if not targets:
            return
        assert self.engine is not None and self.edge_hetero is not None
        with self.tracer.span("gossip.publish", cat="gossip", sim_time=at,
                              peer=peer, targets=len(targets)) as span:
            pub = self.engine.actors[self._node_pos[peer]].call(
                "gossip_publish", self.published[peer], timeout=_TRAIN_TIMEOUT
            )
            state, nbytes = pub["state"], int(pub["bytes"])
            span.set(bytes=nbytes)
        self.published[peer] = state
        sent_steps = self.steps[peer]
        for target in targets:
            edge = (peer, target)
            self.edge_bytes[edge] = self.edge_bytes.get(edge, 0) + nbytes
            self.msgs_sent += 1
            count = self._edge_count.get(edge, 0)
            self._edge_count[edge] = count + 1
            latency, lost = self.edge_hetero.sample(self._edge_stream_id(edge), count)
            if lost:
                self.msgs_lost += 1
                continue
            weight = 0.5 if self.neighbor_selection == "pairwise" else float(
                self._w[target, peer]
            )
            self.queue.push(
                PendingUpdate(
                    arrival=at + latency,
                    seq=self.queue.next_seq(),
                    client=target,
                    version=sent_steps,
                    dispatched_at=at,
                    value={
                        "sender": peer,
                        "state": state,
                        "weight": weight,
                        "sent_steps": sent_steps,
                    },
                )
            )

    def _mix(self, peer: int, state: Dict[str, np.ndarray]) -> List[int]:
        """Average ``peer``'s trained state with its arrived neighbor states.

        Keeps only the newest message per sender (an old replica is
        superseded by a fresher one), discounts each by its staleness, and
        returns the freed weight to the peer itself so the combination stays
        convex.  Integer buffers (e.g. BatchNorm counters) stay local,
        matching the synchronous gossip round.
        """
        with self.tracer.span("gossip.mix", cat="gossip", sim_time=self.now,
                              peer=peer) as span:
            msgs, self.inbox[peer] = self.inbox[peer], []
            latest: Dict[int, Dict[str, Any]] = {}
            for m in msgs:
                latest[int(m["sender"])] = m  # arrival order: newest wins
            assert self.discount is not None
            entries: List[Tuple[Dict[str, np.ndarray], float]] = []
            taus: List[int] = []
            total = 0.0
            for sender in sorted(latest):
                m = latest[sender]
                tau = max(0, self.steps[sender] - int(m["sent_steps"]))
                weight = float(m["weight"]) * self.discount(tau)
                if weight <= 0.0:
                    continue
                entries.append((m["state"], weight))
                taus.append(tau)
                total += weight
            if total > 1.0:  # can't happen with latest-per-sender + stochastic rows
                entries = [(s, w / total) for s, w in entries]
                total = 1.0
            self_weight = 1.0 - total
            if self.robust is not None and entries:
                # robust neighbor mixing: the peer's own state competes with
                # its neighbors' under the robust rule instead of trusting
                # the staleness-discounted convex combination outright
                mixed = self.robust.mix(state, self_weight, entries)
            else:
                mixed = {}
                for key, v in state.items():
                    arr = np.asarray(v)
                    if is_float(arr):
                        acc = self_weight * arr.astype(np.float64)
                        for neighbor_state, weight in entries:
                            acc = acc + weight * np.asarray(neighbor_state[key], dtype=np.float64)
                        mixed[key] = acc.astype(arr.dtype)
                    else:
                        mixed[key] = np.copy(arr)
            self.peer_states[peer] = mixed
            self.mixed_in += len(entries)
            span.set(merged=len(entries))
        return taus

    def _annotate(self, record: "RoundRecord", merged: Sequence[Dict[str, Any]]) -> None:  # noqa: F821
        """Per-edge byte deltas and consensus distance for one record."""
        total = sum(self.edge_bytes.values())
        record.bytes_sent = total - self._bytes_seen
        self._bytes_seen = total
        per_edge = {}
        for edge, sent in self.edge_bytes.items():
            prev = self._edge_seen.get(edge, 0)
            if sent > prev:
                per_edge[f"{edge[0]}->{edge[1]}"] = sent - prev
                self._edge_seen[edge] = sent
        if per_edge:
            record.per_edge = per_edge
        if self.track_consensus:
            record.consensus_dist = self.consensus_distance()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def _execute(self, total_updates: Optional[int]) -> None:
        target = self._start(total_updates)
        self._ensure_states()
        if self.barrier:
            while self.applied < target:
                self._barrier_round()
        else:
            self._run_async(target)

    def _land(self, event: PendingUpdate) -> Optional[Dict[str, Any]]:
        """Deliver one popped event: a neighbor message joins its receiver's
        inbox, a training step retires.  Returns the step's result, or
        ``None`` for a message or a dropped step."""
        if event.value is not None:  # a neighbor message lands
            self.tracer.sim_span(
                "gossip.msg", event.dispatched_at, event.arrival, cat="gossip",
                track=f"edge {event.value['sender']}->{event.client}",
                sender=event.value["sender"], receiver=event.client,
            )
            self.inbox[event.client].append(event.value)
            return None
        peer = event.client
        self._in_flight.pop(peer, None)
        self.tracer.sim_span(
            "peer.train", event.dispatched_at, event.arrival, cat="gossip",
            track=f"peer {peer}", peer=peer, dropped=event.dropped,
        )
        if event.dropped:
            self.dropped += 1
            return None
        result = event.result(_TRAIN_TIMEOUT)
        self.steps[peer] += 1
        if self.engine.nodes[self._node_pos[peer]].is_attacker:
            self.attacked += 1
        stats = result.get("stats", {})
        if "loss" in stats:
            self.last_loss[peer] = float(stats["loss"])
        return result

    def _run_async(self, target: int) -> None:
        for peer in self.peers:
            if peer not in self._in_flight:
                self._dispatch_train(peer, self.now)
        while self.applied < target:
            event = self.queue.pop()
            self.now = max(self.now, event.arrival)
            result = self._land(event)
            peer = event.client
            if result is None:
                if event.dropped:
                    # the peer's compute failed this cycle: nothing to
                    # publish or mix; retry from its current state
                    self._dispatch_train(peer, self.now)
                continue
            self._publish(peer, self.now)
            taus = self._mix(peer, result["state"])
            self.applied += 1
            self.version += 1
            self.record_aggregation([result], taus)
            self._maybe_reshuffle()
            self._dispatch_train(peer, self.now)

    def _barrier_round(self) -> None:
        """One synchronous gossip round under the virtual clock: every peer
        trains from the round-start states, messages land on their own
        schedule, and everyone mixes at the slowest arrival (the barrier)."""
        start = self.now
        for peer in self.peers:
            if peer not in self._in_flight:
                self._dispatch_train(peer, start)
        trained: Dict[int, Dict[str, np.ndarray]] = {}
        merged: List[Dict[str, Any]] = []
        barrier_time = start
        while self.queue:
            event = self.queue.pop()
            barrier_time = max(barrier_time, event.arrival)
            result = self._land(event)
            if result is not None:
                trained[event.client] = result["state"]
                merged.append(result)
                self._publish(event.client, event.arrival)
        self.now = barrier_time
        taus: List[int] = []
        for peer in self.peers:
            # dropped peers still mix what arrived, from their old state
            taus.extend(self._mix(peer, trained.get(peer, self.peer_states[peer])))
        self.applied += len(trained)
        self.version += 1
        if merged:
            self.record_aggregation(merged, taus)
        self._maybe_reshuffle()

    def drain(self) -> None:
        """Retire in-flight training without mixing it; discard queued
        messages; push every peer's final mixed state back into its node so
        ``Engine.evaluate()``/``global_state()`` see the federation's
        actual models after the run."""
        assert self.engine is not None
        while self.queue:
            event = self.queue.pop()
            if event.future is not None:
                self.now = max(self.now, event.arrival)
                event.result(_TRAIN_TIMEOUT)
        self._in_flight.clear()
        for peer in self.inbox:
            self.inbox[peer] = []
        if self.peer_states:
            from repro.engine.actor import wait_all  # cycle guard

            futures = [
                self.engine.actors[self._node_pos[p]].submit(
                    "gossip_adopt", self.peer_states[p]
                )
                for p in self.peers
            ]
            wait_all(futures, timeout=60)

    def __repr__(self) -> str:
        return (
            f"GossipScheduler(selection={self.neighbor_selection!r}, "
            f"mixing={self.mixing!r}, barrier={self.barrier}, "
            f"peers={len(self.peers)}, applied={self.applied})"
        )
