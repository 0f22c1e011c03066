"""Communication substrate: the paper's ``Communicator`` module.

One abstract API (:class:`~repro.comm.base.Communicator`) over several
protocols, selected purely by configuration — the paper's core claim:

* :class:`~repro.comm.torchdist.TorchDistCommunicator` — MPI-style
  collectives (ring all-reduce, all-gather, tree broadcast) over an
  in-process rendezvous group; the "fast inner" protocol.
* :class:`~repro.comm.rpc.GrpcCommunicator` — client/server RPC with a real
  length-prefixed wire format over in-proc queues or TCP sockets; the
  "slow outer" protocol.
* :class:`~repro.comm.pubsub.MqttCommunicator` /
  :class:`~repro.comm.pubsub.AmqpCommunicator` — publish/subscribe and
  queue-with-ack middleware semantics over an in-memory broker.

Every communicator accounts bytes moved and *simulated* seconds (latency +
size/bandwidth per its :class:`~repro.comm.network.NetworkModel`) so
laptop-scale runs still expose the paper's inner-vs-outer cost gap (Fig. 7).
"""

# eager: light, and tracers rebind these two in this namespace
from repro.comm.wire import decode_message, encode_message
from repro.utils.lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "repro.comm.base": ["Communicator", "CommStats"],
    "repro.comm.collectives": ["CollectiveGroup"],
    "repro.comm.network": ["NetworkModel", "LINK_PRESETS"],
    "repro.comm.torchdist": ["TorchDistCommunicator"],
    "repro.comm.rpc": ["GrpcCommunicator", "RpcServer"],
    "repro.comm.pubsub": ["MqttCommunicator", "AmqpCommunicator", "Broker"],
})
__all__ += ["encode_message", "decode_message"]
