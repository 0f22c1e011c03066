"""Scheduler subsystem: the framework's execution-policy layer.

OmniFed's topology/algorithm/communication decomposition fixes *where* nodes
sit, *what* they optimize, and *how* bytes move — this package makes *when*
updates enter the global model a fourth configurable axis.  It provides

* client **selection strategies** (:mod:`~repro.scheduler.selection`):
  ``random``, ``round_robin``, ``power_of_choice``;
* **staleness discounts** (:mod:`~repro.scheduler.staleness`):
  ``constant``, ``polynomial``, ``hinge``;
* a reproducible **heterogeneity/fault model**
  (:mod:`~repro.scheduler.heterogeneity`): lognormal/uniform latency,
  dropout;
* four **execution policies** (:mod:`~repro.scheduler.policies`) over a
  virtual-time event queue: ``sync``, ``semi_sync`` (deadline),
  ``fedasync``, ``fedbuff``;
* a **hierarchical coordinator** (:mod:`~repro.scheduler.hierarchical`):
  ``hier_async`` nests a per-site inner policy under an asynchronous (or
  barrier) outer merge at the global root — the paper's cross-facility
  scenario with per-tier policy choice;
* a **decentralized gossip runtime** (:mod:`~repro.scheduler.gossip`):
  ``gossip_async`` runs ring/p2p/custom-graph federations serverless —
  each peer trains, pushes its state to a sampled neighbor set over a
  per-edge latency/loss model, and mixes arrivals with mixing-matrix
  weights scaled by a staleness discount (``barrier=true`` reproduces the
  synchronous gossip round under the same clock).

Compose like any other axis::

    spec = ExperimentSpec(..., scheduler="fedbuff", total_updates=48)
    result = Experiment(spec).run()

or from YAML (``scheduler=fedasync`` on the CLI selects
``conf/scheduler/fedasync.yaml``; ``scheduler=hier_async
scheduler.inner=fedbuff scheduler.outer=fedasync`` picks per-tier
policies on a hierarchical topology).
"""

from repro.scheduler.base import SCHEDULERS, Scheduler, build_scheduler
from repro.scheduler.events import EventQueue, PendingUpdate
from repro.scheduler.gossip import GossipScheduler
from repro.scheduler.heterogeneity import HeterogeneityModel
from repro.scheduler.hierarchical import HierarchicalScheduler
from repro.scheduler.policies import (
    FedAsyncScheduler,
    FedBuffScheduler,
    SemiSyncScheduler,
    SyncScheduler,
)
from repro.scheduler.selection import (
    SELECTORS,
    PowerOfChoiceSelection,
    RandomSelection,
    RoundRobinSelection,
    SelectionStrategy,
    build_selector,
)
from repro.scheduler.staleness import (
    STALENESS,
    build_staleness,
    constant_discount,
    hinge_discount,
    polynomial_discount,
)

__all__ = [
    "Scheduler",
    "SCHEDULERS",
    "build_scheduler",
    "SyncScheduler",
    "SemiSyncScheduler",
    "FedAsyncScheduler",
    "FedBuffScheduler",
    "HierarchicalScheduler",
    "GossipScheduler",
    "SelectionStrategy",
    "RandomSelection",
    "RoundRobinSelection",
    "PowerOfChoiceSelection",
    "SELECTORS",
    "build_selector",
    "STALENESS",
    "build_staleness",
    "constant_discount",
    "polynomial_discount",
    "hinge_discount",
    "HeterogeneityModel",
    "EventQueue",
    "PendingUpdate",
]
