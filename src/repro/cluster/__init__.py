"""The live control plane behind the ``tcp://`` / ``inproc://`` brokers.

Real transport and membership, with liveness by the one heartbeat-and-lease
rule of :mod:`repro.runtime.liveness` — see
:mod:`repro.cluster.coordinator` (the engine side, a
:class:`~repro.runtime.broker.TurnBroker`) and :mod:`repro.cluster.link`
(the ``python -m repro worker tcp://host:port`` side, a
:class:`~repro.runtime.broker.WorkerLink`).  Nothing is imported here: the
broker registry loads the coordinator when a URL names it, and a worker
process loads only its link.
"""
