"""Hierarchical asynchronous federation: per-tier execution policies.

The paper's cross-facility scenario (Fig. 1d / Fig. 7) nests two very
different links: dense intra-site groups over fast collectives and sparse
cross-site links over slow RPC.  This module makes the *execution policy*
composable per tier, the same way the topology already composes protocols:

* each **site head** runs a nested *inner* policy over its trainers — any
  flat scheduler (``sync`` barrier, ``semi_sync`` deadline, ``fedasync``,
  ``fedbuff``) bound in site scope, with the head playing the server role;
* the **global root** merges site-level uploads under an *outer* policy:
  ``fedasync`` (staleness-discounted interpolation per arrival — async
  HierFAVG), ``fedbuff`` (buffered site deltas), or ``sync`` (barrier
  across sites, reproducing the synchronous hierarchy under the same
  virtual clock).

Each outer merge is the flat policy's own rule — :func:`~repro.scheduler.
policies.merge_interpolate`, :func:`~repro.scheduler.policies.merge_buffered`
and :func:`~repro.scheduler.policies.merge_barrier`, robust case included —
so a rule is written once and behaves the same at every tier.  This module
owns only the tier logic: site dispatch, upload decoding, drops, and the
per-site breakdown of the root's records.

Site uploads travel through the site head's ``outer_compressor``/DP codec,
delta-coded against the global state the site was dispatched from — exactly
the slow-link treatment of the synchronous hierarchical round (§3.4.5).

Virtual time has two latency models: the inner heterogeneity model stamps
trainer dispatches inside each site, and ``outer_heterogeneity`` stamps the
cross-site link (one draw per direction; uplink draws may also drop).  A
site blocks awaiting the next global model after it uploads — asynchrony
lives *across* sites: a slow site no longer stalls the federation, it just
merges late with a staleness discount.  Real compute still happens (inner
rounds run the trainers' actors); site rounds execute serially in wall
time, which keeps the virtual-time accounting exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.scheduler.base import SCHEDULERS, Scheduler, build_scheduler
from repro.scheduler.events import PendingUpdate
from repro.scheduler.heterogeneity import HeterogeneityModel
from repro.scheduler.policies import (
    _float_delta,
    merge_barrier,
    merge_buffered,
    merge_interpolate,
)
from repro.utils.logging import get_logger

__all__ = ["HierarchicalScheduler"]

_LOG = get_logger("scheduler")

#: real-seconds timeout for head-actor codec calls
_HEAD_TIMEOUT = 600.0

_OUTER_POLICIES = ("fedasync", "fedbuff", "sync")

# site lifecycle states
_IDLE = "idle"  # needs a fresh global dispatch
_READY = "ready"  # has a global model, inner round not yet run
_UPLOADING = "uploading"  # site round done, upload in the outer queue


@dataclass
class _Site:
    """Runtime bookkeeping for one site of the hierarchy."""

    site: int  # site id within the topology
    head: int  # engine-node position of the site head
    trainers: List[int]
    inner: Scheduler
    samples: int  # total training samples below this head (outer weight)
    state: str = _IDLE
    base_state: Optional[Dict[str, np.ndarray]] = None  # global at dispatch
    base_version: int = 0
    draws: int = 0  # outer-link latency draws taken so far
    hist_mark: int = 0  # site-collector records already consumed
    merged_rounds: int = 0  # site rounds merged into the global model

    @property
    def collector(self):
        assert self.inner.metrics is not None
        return self.inner.metrics


@SCHEDULERS.register("hier_async", "hierarchical", "hier")
class HierarchicalScheduler(Scheduler):
    """Two-tier execution policy over a hierarchical topology.

    Parameters
    ----------
    inner:
        Name of the per-site policy (``sync``, ``semi_sync``, ``fedasync``,
        ``fedbuff``) — every site head runs its own scoped instance.
    inner_kwargs:
        Extra kwargs for the inner policy (e.g. ``deadline``,
        ``buffer_size``).  Staleness/selection/heterogeneity settings of
        this scheduler are inherited unless explicitly overridden here.
    outer:
        Root merge policy: ``fedasync`` | ``fedbuff`` | ``sync``.
    outer_alpha:
        Interpolation weight for the ``fedasync`` outer policy (scaled by
        the staleness discount).
    outer_buffer_size, outer_server_lr:
        Buffering parameters for the ``fedbuff`` outer policy.
    updates_per_site_round:
        Inner updates a site applies before uploading (default: the site's
        trainer count — one site-round's worth).
    outer_heterogeneity:
        Latency/dropout model of the slow cross-site link (one draw per
        direction, keyed by the site head's node index).  The base
        ``heterogeneity`` kwarg keeps modelling the trainers inside sites.
    """

    name = "hier_async"
    patterns = ("hierarchical",)

    def __init__(
        self,
        inner: str = "sync",
        outer: str = "fedasync",
        inner_kwargs: Optional[Dict[str, Any]] = None,
        outer_alpha: float = 0.6,
        outer_buffer_size: int = 2,
        outer_server_lr: float = 1.0,
        updates_per_site_round: Optional[int] = None,
        outer_heterogeneity: Optional[Any] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        inner = str(inner)
        if inner in ("hier_async", "hierarchical", "hier"):
            raise ValueError("inner policy cannot itself be hierarchical (one nesting level)")
        outer = str(outer)
        if outer not in _OUTER_POLICIES:
            raise ValueError(f"unknown outer policy {outer!r}; have {_OUTER_POLICIES}")
        if not (0.0 < outer_alpha <= 1.0):
            raise ValueError("outer_alpha must be in (0, 1]")
        if outer_buffer_size < 1:
            raise ValueError("outer_buffer_size must be >= 1")
        if updates_per_site_round is not None and updates_per_site_round < 1:
            raise ValueError("updates_per_site_round must be >= 1")
        self.inner = inner
        self.outer = outer
        # only the barrier outer merges through the algorithm's aggregate()
        self.uses_algorithm_aggregate = outer == "sync"
        self.inner_kwargs = dict(inner_kwargs or {})
        self.outer_alpha = float(outer_alpha)
        self.outer_buffer_size = int(outer_buffer_size)
        self.outer_server_lr = float(outer_server_lr)
        self.updates_per_site_round = updates_per_site_round
        self._outer_hetero_cfg = outer_heterogeneity
        self.outer_hetero: Optional[HeterogeneityModel] = None
        self.sites: List[_Site] = []
        self._site_by_head: Dict[int, _Site] = {}
        self._outer_buffer: List[Dict[str, Any]] = []
        self.outer_flushes = 0
        self._robust_window: List[Dict[str, np.ndarray]] = []

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def bind(self, engine: "Engine", **scope: Any) -> "HierarchicalScheduler":  # noqa: F821
        if scope:
            raise ValueError("a hierarchical scheduler cannot be bound in site scope")
        if self.engine is engine and self.sites:
            # re-entry from a follow-up run_async(): keep the live site
            # schedulers (their clocks and versions continue the federation)
            return self
        super().bind(engine)
        groups = engine.topology.site_groups()
        if not groups:
            raise ValueError(
                f"scheduler {self.name!r} needs a topology with site groups "
                f"(got {type(engine.topology).__name__} exposing none)"
            )
        seed = int(self.seed if self.seed is not None else engine.seed)
        # a distinct stream for the slow link so inner/outer draws never alias
        self.outer_hetero = HeterogeneityModel.from_config(self._outer_hetero_cfg, seed=seed + 7919)
        self.sites = []
        for g in groups:
            inner = self._build_inner()
            from repro.engine.metrics import MetricsCollector  # cycle guard

            inner.bind(
                engine,
                clients=g.trainers,
                server_idx=g.head,
                metrics=MetricsCollector(),
            )
            samples = int(sum(engine.nodes[t].num_samples for t in g.trainers))
            self.sites.append(
                _Site(site=g.site, head=g.head, trainers=list(g.trainers), inner=inner, samples=samples)
            )
        self._site_by_head = {s.head: s for s in self.sites}
        _LOG.info(
            "hierarchical scheduler bound: %d sites, inner=%s outer=%s",
            len(self.sites), self.inner, self.outer,
        )
        return self

    def _build_inner(self) -> Scheduler:
        kwargs = dict(self.inner_kwargs)
        kwargs.pop("eval_every", None)  # site tiers never evaluate globally
        kwargs.setdefault("staleness", self._staleness_spec)
        kwargs.setdefault("staleness_kwargs", dict(self._staleness_kwargs))
        kwargs.setdefault("heterogeneity", self._hetero_cfg)
        if self._selection is not None:
            kwargs.setdefault("selection", self._selection)
            kwargs.setdefault("selection_kwargs", dict(self._selection_kwargs))
        kwargs.setdefault("seed", self.seed)
        return build_scheduler(self.inner, eval_every=0, **kwargs)

    # ------------------------------------------------------------------
    # outer-tier mechanics
    # ------------------------------------------------------------------
    def _dispatch_site(self, site: _Site) -> None:
        """Ship the current global model down the slow link to a site head."""
        assert self.engine is not None and self.outer_hetero is not None
        latency, _ = self.outer_hetero.sample(site.head, site.draws)  # downlink never drops
        site.draws += 1
        payload = self.server.algorithm.server_payload(self.global_state)
        self.engine.actors[site.head].call("adopt_global", payload, timeout=_HEAD_TIMEOUT)
        # pin the dispatch-time global: the root decodes this site's next
        # delta-coded upload against exactly this reference (aggregations
        # replace the state dict, so holding the reference is enough)
        site.base_state = self.global_state
        site.base_version = self.version
        site.inner.now = max(site.inner.now, self.now + latency)
        site.state = _READY

    def _run_site_round(self, site: _Site) -> None:
        """Run one inner-policy chunk at a site and enqueue its upload."""
        assert self.engine is not None and self.outer_hetero is not None
        inner = site.inner
        before = inner.applied
        with self.tracer.span("site.round", cat="hier", site=site.site,
                              sim_time=inner.now, policy=inner.name):
            inner.run(self.updates_per_site_round or len(site.trainers))
        applied = inner.applied - before
        recs = site.collector.history[site.hist_mark:]
        site.hist_mark = len(site.collector.history)
        w_total = sum(r.applied for r in recs)
        stats: Dict[str, float] = {"samples": float(site.samples)}
        if w_total > 0:
            stats["loss"] = sum(r.train_loss * r.applied for r in recs) / w_total
            stats["accuracy"] = sum(r.train_accuracy * r.applied for r in recs) / w_total
        wire, meta = self.engine.actors[site.head].call(
            "site_upload", site.base_state, site.samples, timeout=_HEAD_TIMEOUT
        )
        latency, dropped = self.outer_hetero.sample(site.head, site.draws)
        site.draws += 1
        event = PendingUpdate(
            arrival=inner.now + latency,
            seq=self.queue.next_seq(),
            client=site.head,
            version=site.base_version,
            dispatched_at=inner.now,
            dropped=dropped,
            value={
                "state": wire,
                "meta": meta,
                "stats": stats,
                "applied": applied,
                "site": site.site,
            },
        )
        event.base_state = site.base_state
        self.queue.push(event)
        site.state = _UPLOADING

    def _decode(self, event: PendingUpdate) -> Dict[str, np.ndarray]:
        upload = event.value
        return self.server.decode_site_upload(upload["state"], upload["meta"], event.base_state)

    def _merge_next_arrival(self) -> None:
        """Async outer step: pop the earliest site upload and merge it."""
        event = self.queue.pop()
        self.now = max(self.now, event.arrival)
        site = self._site_by_head[event.client]
        site.state = _IDLE
        self.tracer.sim_span(
            "site.upload", event.dispatched_at, event.arrival, cat="hier",
            track=f"site {event.value['site']}", site=event.value["site"],
            dropped=event.dropped,
        )
        if event.dropped:
            # the upload was lost on the slow link: the root notices at the
            # (virtual) timeout and redispatches; nothing merges
            self.dropped += 1
        else:
            upload = event.value
            tau = self.staleness_of(event)
            assert self.discount is not None
            if self.outer == "fedasync":
                with self.tracer.span("outer.merge", cat="hier", sim_time=self.now,
                                      policy=self.outer, site=upload["site"]):
                    merge_interpolate(self, self._robust_window, max(3, len(self.sites)),
                                      self._decode(event), self.outer_alpha * self.discount(tau))
                site.merged_rounds += 1
                self._record_outer([upload], [tau])
            else:  # fedbuff outer: buffer the site delta, flush every K
                assert event.base_state is not None
                delta = _float_delta(self._decode(event), event.base_state)
                site.merged_rounds += 1
                self._outer_buffer.append(
                    {"delta": delta, "weight": self.discount(tau), "upload": upload, "tau": tau}
                )
                if len(self._outer_buffer) >= self.outer_buffer_size:
                    self._flush_outer()
        self._dispatch_site(site)

    def _merge_sync_barrier(self) -> None:
        """Sync outer round: wait for every site, aggregate once, redispatch."""
        assert self.engine is not None
        events: List[PendingUpdate] = []
        while self.queue:
            events.append(self.queue.pop())
        if not events:
            raise RuntimeError("sync outer barrier reached with no site uploads in flight")
        self.now = max(self.now, max(e.arrival for e in events))
        entries, uploads, staleness = [], [], []
        for event in events:
            site = self._site_by_head[event.client]
            site.state = _IDLE
            if event.dropped:
                self.dropped += 1
                continue
            meta = {"num_samples": int(event.value["meta"].get("num_samples", 1))}
            entries.append({"rank": event.client, "state": self._decode(event), "meta": meta})
            site.merged_rounds += 1
            uploads.append(event.value)
            staleness.append(self.staleness_of(event))
        if entries:
            with self.tracer.span("outer.merge", cat="hier", sim_time=self.now,
                                  policy=self.outer, merged=len(entries)):
                merge_barrier(self, entries)
            self._record_outer(uploads, staleness)
        for site in self.sites:
            if site.state == _IDLE:
                self._dispatch_site(site)

    def _flush_outer(self) -> None:
        if not self._outer_buffer:
            return
        # detach before applying: _record_outer may raise StopRun, and
        # applied site deltas must not survive to be re-applied next flush
        buffer, self._outer_buffer = self._outer_buffer, []
        with self.tracer.span("outer.merge", cat="hier", sim_time=self.now,
                              policy=self.outer, merged=len(buffer)):
            merge_buffered(self, buffer, self.outer_server_lr)
        self.outer_flushes += 1
        self._record_outer([item["upload"] for item in buffer], [item["tau"] for item in buffer])

    # ------------------------------------------------------------------
    # two-tier round accounting
    # ------------------------------------------------------------------
    def _record_outer(self, uploads: Sequence[Dict[str, Any]], staleness: Sequence[int]) -> None:
        """One global record per root aggregation; its ``applied`` counts the
        *client* updates the merged site uploads carry, so totals compare
        1:1 with flat policies.  Site-tier records live in each site's own
        collector (``scheduler.site_metrics``)."""
        applied = int(sum(u["applied"] for u in uploads))
        self.applied += applied
        self.record_aggregation(uploads, staleness, applied=applied)

    def _annotate(self, record: "RoundRecord", merged: Sequence[Dict[str, Any]]) -> None:  # noqa: F821
        """``sites_merged`` counts the uploads; ``per_node`` keeps the
        per-site breakdown (upload stats plus client updates applied)."""
        record.sites_merged = len(merged)
        record.per_node = {
            f"site{u['site']}": {
                **{k: float(v) for k, v in u["stats"].items() if isinstance(v, (int, float))},
                "applied": float(u["applied"]),
            }
            for u in merged
        }

    @property
    def site_metrics(self) -> List["MetricsCollector"]:  # noqa: F821
        """Per-site inner-tier histories, site-major."""
        return [s.collector for s in self.sites]

    def robust_counters(self) -> Dict[str, int]:
        """Root counters plus every site tier's (attacked updates retire at
        the inner schedulers; robust rejections can happen at either tier)."""
        out = super().robust_counters()
        for site in self.sites:
            inner = site.inner.robust_counters()
            for key in out:
                out[key] += inner[key]
        return out

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def _execute(self, total_updates: Optional[int]) -> None:
        target = self._start(total_updates)
        for site in self.sites:
            if site.state == _IDLE:
                self._dispatch_site(site)
        while self.applied < target:
            for site in self.sites:
                if site.state == _READY:
                    self._run_site_round(site)
            if self.outer == "sync":
                self._merge_sync_barrier()
            else:
                self._merge_next_arrival()
        if self.outer == "fedbuff":
            self._flush_outer()

    def drain(self) -> None:
        """Discard queued site uploads without advancing the virtual clock.

        Unlike trainer dispatches these carry no futures (their inner rounds
        completed before enqueueing), so there is nothing to unblock — and
        retiring them would charge un-merged uploads to the makespan."""
        while self.queue:
            event = self.queue.pop()
            site = self._site_by_head.get(event.client)
            if site is not None:
                site.state = _IDLE

    def __repr__(self) -> str:
        return (
            f"HierarchicalScheduler(inner={self.inner!r}, outer={self.outer!r}, "
            f"sites={len(self.sites)}, version={self.version}, applied={self.applied})"
        )
