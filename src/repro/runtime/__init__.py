"""repro.runtime — the public client-runtime and broker API.

How logical clients reach execution substrates:

* :class:`ClientRuntime` / :class:`DedicatedRuntime` — the runtime
  contract (``submit`` / ``evaluate_all`` / ``shutdown`` / ``pooled``) and
  its one-node-per-client implementation (:mod:`repro.runtime.base`);
* :class:`ClientPool` — pooled execution: ``num_clients`` logical clients
  scheduled (per-client FIFO, bounded admission window) onto a turn broker
  (:mod:`repro.runtime.pool`);
* :func:`Broker` — scheme-registry factory over broker URLs:
  ``memory://`` runs turns on the caller's thread (the one pumping the
  pool), ``redis://`` on worker processes pulling from a redis queue,
  ``tcp://`` on live worker processes that join this engine as cluster
  members (:mod:`repro.runtime.broker`; :mod:`repro.runtime.redis` and
  :mod:`repro.cluster.coordinator` are imported only when a URL names them);
* :class:`~repro.runtime.worker.Worker` — the one remote worker process,
  ``python -m repro worker <url>``, serving turns through the
  :class:`WorkerLink` the URL's scheme names.

Every name resolves on first use (:mod:`repro.utils.lazy`), so a worker
process, which needs only the broker module and its own link, never loads
the pool.
"""

from repro.utils.lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "repro.runtime.base": ["ClientRuntime", "DedicatedRuntime"],
    "repro.runtime.pool": ["ClientPool", "PoolTicket"],
    "repro.runtime.broker": [
        "Broker", "TurnBroker", "WorkerLink", "MemoryBroker", "BROKER_SCHEMES",
        "register_broker", "broker_class", "broker_scheme", "BrokerError",
        "BrokerTurnLost", "BrokerUnavailable",
    ],
    "repro.runtime.redis": ["RedisBroker"],
})
