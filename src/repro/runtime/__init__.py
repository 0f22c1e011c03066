"""repro.runtime — the public client-runtime and broker API.

How logical clients reach execution substrates:

* :class:`ClientRuntime` / :class:`DedicatedRuntime` — the runtime
  contract (``submit`` / ``evaluate_all`` / ``shutdown`` / ``pooled``) and
  its one-node-per-client implementation (:mod:`repro.runtime.base`);
* :class:`ClientPool` — pooled execution: ``num_clients`` logical clients
  scheduled (per-client FIFO, bounded admission window) onto a turn broker
  (:mod:`repro.runtime.pool`);
* :func:`Broker` — scheme-registry factory over broker URLs:
  ``memory://`` runs turns on in-process worker actors, ``redis://`` on
  worker processes pulling from a redis queue, ``tcp://`` on live worker
  processes that join this engine as cluster members
  (:mod:`repro.runtime.broker`, :mod:`repro.runtime.redis`,
  :mod:`repro.cluster.coordinator` — imported only when a URL names it);
* :class:`~repro.runtime.worker.Worker` — the one remote worker process,
  ``python -m repro worker <url>``, serving turns through the
  :class:`WorkerLink` the URL's scheme names.
"""

from repro.runtime.base import ClientRuntime, DedicatedRuntime
from repro.runtime.broker import (
    BROKER_SCHEMES,
    Broker,
    BrokerError,
    BrokerTurnLost,
    BrokerUnavailable,
    MemoryBroker,
    TurnBroker,
    WorkerLink,
    broker_class,
    broker_scheme,
    register_broker,
)
from repro.runtime.pool import ClientPool, PoolTicket
from repro.runtime.redis import RedisBroker  # registers the redis:// scheme

__all__ = [
    "ClientRuntime",
    "DedicatedRuntime",
    "ClientPool",
    "PoolTicket",
    "Broker",
    "TurnBroker",
    "WorkerLink",
    "MemoryBroker",
    "RedisBroker",
    "BROKER_SCHEMES",
    "register_broker",
    "broker_class",
    "broker_scheme",
    "BrokerError",
    "BrokerTurnLost",
    "BrokerUnavailable",
]
