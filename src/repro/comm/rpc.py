"""``GrpcCommunicator`` — client/server RPC backend (the gRPC substitute).

Rank 0 hosts an :class:`RpcServer`; other ranks connect with channels and
drive everything through typed request/response messages on the binary wire
format (:mod:`repro.comm.wire`).  Exactly the paper's description: "a server
that receives, aggregates, and broadcasts updates sent by clients over
heterogeneous networks".

Group-primitive mapping:

* ``broadcast_state``  — server bumps a model version; clients long-poll
  ``pull_state`` until the version appears;
* ``gather_states``    — clients ``push_state``; the server collects
  ``world_size`` entries per generation;
* ``allreduce``        — clients post vectors; the server reduces and every
  caller's request returns the result (server-mediated reduction);
* ``barrier``/``send``/``recv`` — generation counters and mailboxes.

Transport is pluggable (``inproc`` queues or real ``tcp`` sockets).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.comm.base import Communicator
from repro.comm.network import NetworkModel
from repro.comm.transport import ClientChannel, make_channel, make_server_transport
from repro.comm.wire import decode_message, encode_message
from repro.utils.timer import SimClock

__all__ = ["GrpcCommunicator", "RpcServer", "RpcError"]

_DEFAULT_TIMEOUT = 120.0


class RpcError(RuntimeError):
    """Raised when the server reports an error response."""


def _json_safe(meta: Mapping[str, Any]) -> Dict[str, Any]:
    """Coerce numpy scalars so metadata survives JSON encoding."""
    out: Dict[str, Any] = {}
    for k, v in meta.items():
        if isinstance(v, (np.integer,)):
            out[k] = int(v)
        elif isinstance(v, (np.floating,)):
            out[k] = float(v)
        elif isinstance(v, np.ndarray):
            raise TypeError(f"meta entry {k!r} is an array; put arrays in the payload instead")
        elif isinstance(v, dict):
            out[k] = _json_safe(v)
        else:
            out[k] = v
    return out


class _ServerState:
    """All coordination state behind the RPC server (condition-guarded)."""

    def __init__(self, world_size: int) -> None:
        self.world_size = world_size
        self.cond = threading.Condition()
        self.model_version = 0
        # keep a short version history so a slow client asking for version N
        # still gets N even if the server has already published N+1
        self.model_states: Dict[int, Dict[str, np.ndarray]] = {}
        self.history = 8
        self.pushes: Dict[int, List[Dict[str, Any]]] = {}
        self.reduce_in: Dict[Tuple[int, str], List[np.ndarray]] = {}
        self.reduce_out: Dict[Tuple[int, str], np.ndarray] = {}
        self.barrier_in: Dict[int, int] = {}
        self.mailboxes: Dict[Tuple[int, int], List[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]] = {}
        self.stopped = False

    # each method below is invoked either from an RPC handler thread (remote
    # client) or directly by rank 0's communicator (the server-local node).

    def set_state(self, state: Dict[str, np.ndarray]) -> int:
        with self.cond:
            self.model_version += 1
            self.model_states[self.model_version] = state
            stale = self.model_version - self.history
            if stale in self.model_states:
                del self.model_states[stale]
            self.cond.notify_all()
            return self.model_version

    def wait_state(self, want_version: int, timeout: float) -> Tuple[int, Dict[str, np.ndarray]]:
        deadline = time.monotonic() + timeout
        with self.cond:
            while self.model_version < want_version:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.stopped:
                    raise TimeoutError(f"pull_state: version {want_version} never published")
                self.cond.wait(timeout=min(remaining, 1.0))
            if want_version in self.model_states:
                return want_version, self.model_states[want_version]
            # requested version aged out of history; hand back the newest
            return self.model_version, self.model_states[self.model_version]

    def push(self, gen: int, entry: Dict[str, Any]) -> None:
        with self.cond:
            self.pushes.setdefault(gen, []).append(entry)
            self.cond.notify_all()

    def wait_pushes(self, gen: int, count: int, timeout: float) -> List[Dict[str, Any]]:
        deadline = time.monotonic() + timeout
        with self.cond:
            while len(self.pushes.get(gen, [])) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.stopped:
                    have = len(self.pushes.get(gen, []))
                    raise TimeoutError(f"gather: only {have}/{count} pushes for gen {gen}")
                self.cond.wait(timeout=min(remaining, 1.0))
            return self.pushes.pop(gen)

    def reduce(self, gen: int, op: str, vector: np.ndarray, timeout: float) -> np.ndarray:
        key = (gen, op)
        deadline = time.monotonic() + timeout
        with self.cond:
            bucket = self.reduce_in.setdefault(key, [])
            bucket.append(np.asarray(vector, dtype=np.float64))
            if len(bucket) == self.world_size:
                total = np.sum(bucket, axis=0)
                if op == "mean":
                    total = total / self.world_size
                self.reduce_out[key] = total.astype(np.float32)
                del self.reduce_in[key]
                self.cond.notify_all()
            while key not in self.reduce_out:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.stopped:
                    raise TimeoutError(f"allreduce gen {gen}: incomplete")
                self.cond.wait(timeout=min(remaining, 1.0))
            return self.reduce_out[key]

    def barrier(self, gen: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        with self.cond:
            self.barrier_in[gen] = self.barrier_in.get(gen, 0) + 1
            self.cond.notify_all()
            while self.barrier_in.get(gen, 0) < self.world_size:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.stopped:
                    raise TimeoutError(f"barrier gen {gen}: incomplete")
                self.cond.wait(timeout=min(remaining, 1.0))

    def mailbox_put(self, dst: int, tag: int, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> None:
        with self.cond:
            self.mailboxes.setdefault((dst, tag), []).append((meta, arrays))
            self.cond.notify_all()

    def mailbox_get(self, rank: int, tag: int, timeout: float) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        deadline = time.monotonic() + timeout
        with self.cond:
            while not self.mailboxes.get((rank, tag)):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.stopped:
                    raise TimeoutError(f"recv: nothing for rank {rank} tag {tag}")
                self.cond.wait(timeout=min(remaining, 1.0))
            return self.mailboxes[(rank, tag)].pop(0)

    def stop(self) -> None:
        with self.cond:
            self.stopped = True
            self.cond.notify_all()


class RpcServer:
    """Wire-format RPC endpoint dispatching to a :class:`_ServerState`."""

    def __init__(self, state: _ServerState, transport_kind: str, address: str) -> None:
        self.state = state
        self.transport = make_server_transport(transport_kind, address)
        self.bytes_received = 0

    def start(self) -> None:
        self.transport.start(self._handle)

    def stop(self) -> None:
        self.state.stop()
        self.transport.stop()

    @property
    def address(self) -> str:
        return self.transport.address

    def _handle(self, frame: bytes) -> bytes:
        self.bytes_received += len(frame)
        kind, meta, arrays = decode_message(frame)
        method = meta.get("method", "")
        try:
            if method == "pull_state":
                version, state = self.state.wait_state(int(meta["want_version"]), float(meta.get("timeout", _DEFAULT_TIMEOUT)))
                return encode_message("response", {"version": version}, state)
            if method == "push_state":
                entry = {"rank": int(meta["rank"]), "state": arrays, "meta": meta.get("client_meta", {})}
                self.state.push(int(meta["gen"]), entry)
                return encode_message("ack", {}, {})
            if method == "reduce":
                result = self.state.reduce(int(meta["gen"]), str(meta["op"]), arrays["v"], float(meta.get("timeout", _DEFAULT_TIMEOUT)))
                return encode_message("response", {}, {"v": result})
            if method == "barrier":
                self.state.barrier(int(meta["gen"]), float(meta.get("timeout", _DEFAULT_TIMEOUT)))
                return encode_message("ack", {}, {})
            if method == "p2p_put":
                self.state.mailbox_put(int(meta["dst"]), int(meta["tag"]), meta.get("payload_meta", {}), arrays)
                return encode_message("ack", {}, {})
            if method == "p2p_get":
                payload_meta, payload_arrays = self.state.mailbox_get(
                    int(meta["rank"]), int(meta["tag"]), float(meta.get("timeout", _DEFAULT_TIMEOUT))
                )
                return encode_message("response", {"payload_meta": payload_meta}, payload_arrays)
            return encode_message("error", {"error": f"unknown method {method!r}"}, {})
        except TimeoutError as exc:
            return encode_message("error", {"error": str(exc)}, {})


class GrpcCommunicator(Communicator):
    """Client/server communicator; rank 0 hosts the server."""

    def __init__(
        self,
        rank: int,
        world_size: int,
        master_addr: str = "127.0.0.1",
        master_port: int = 50051,
        transport: str = "inproc",
        network: Optional[NetworkModel] = None,
        network_preset: Optional[str] = None,
        sim_clock: Optional[SimClock] = None,
        timeout: float = _DEFAULT_TIMEOUT,
    ) -> None:
        if network is None and network_preset is not None:
            network = NetworkModel.from_preset(network_preset)
        super().__init__(rank, world_size, network, sim_clock)
        self.transport_kind = transport
        self.timeout = timeout
        self._address = f"{master_addr}:{master_port}"
        if transport == "inproc":
            self._address = f"grpc-inproc://{master_addr}:{master_port}"
        self._server: Optional[RpcServer] = None
        self._channel: Optional[ClientChannel] = None
        self._seen_version = 0
        self._gather_gen = 0
        self._reduce_gen = 0
        self._barrier_gen = 0
        if rank == 0:
            self._state = _ServerState(world_size)
            self._server = RpcServer(self._state, transport, self._address)

    # -- lifecycle ---------------------------------------------------------
    def setup(self) -> None:
        if self._server is not None:
            self._server.start()
            if self.transport_kind == "tcp":
                # rebind address with the OS-assigned port for clients to learn
                self._address = self._server.address

    def shutdown(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None
        if self._server is not None:
            self._server.stop()

    @property
    def server_address(self) -> str:
        return self._address

    def _get_channel(self) -> ClientChannel:
        if self._channel is None:
            deadline = time.monotonic() + 10.0
            last_exc: Optional[Exception] = None
            while time.monotonic() < deadline:
                try:
                    self._channel = make_channel(self.transport_kind, self._address)
                    return self._channel
                except (ConnectionError, OSError) as exc:
                    last_exc = exc
                    time.sleep(0.05)
            raise ConnectionError(f"cannot reach RPC server at {self._address}: {last_exc}")
        return self._channel

    def _call(self, method: str, meta: Dict[str, Any], arrays: Mapping[str, np.ndarray]) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        meta = dict(meta)
        meta["method"] = method
        meta.setdefault("timeout", self.timeout)
        frame = encode_message("request", _json_safe(meta), dict(arrays))
        start = time.perf_counter()
        response = self._get_channel().call(frame)
        wall = time.perf_counter() - start
        sim = self.network.transfer_time(len(frame)) + self.network.transfer_time(len(response))
        self.sim_clock.advance(sim, "rpc")
        self.stats.record(sent=len(frame), received=len(response), wall=wall, sim=sim)
        kind, rmeta, rarrays = decode_message(response)
        if kind == "error":
            raise RpcError(rmeta.get("error", "unknown RPC error"))
        return rmeta, rarrays

    # -- group primitives -----------------------------------------------------
    def broadcast_state(self, state: Optional[Mapping[str, np.ndarray]], src: int = 0) -> Dict[str, np.ndarray]:
        if src != 0:
            raise ValueError("GrpcCommunicator broadcasts originate at the server (rank 0)")
        if self.rank == 0:
            if state is None:
                raise ValueError("server must provide the state to broadcast")
            payload = OrderedDict((k, np.array(v, copy=True)) for k, v in state.items())
            self._seen_version = self._state.set_state(payload)
            # server "sends" the state world_size - 1 times
            nbytes = self._state_nbytes(payload)
            for _ in range(self.world_size - 1):
                self._account(nbytes, "send", "rpc")
            return payload
        rmeta, arrays = self._call("pull_state", {"want_version": self._seen_version + 1}, {})
        self._seen_version = int(rmeta["version"])
        return OrderedDict(arrays)

    def gather_states(
        self, state: Mapping[str, np.ndarray], meta: Optional[Dict[str, Any]] = None, dst: int = 0
    ) -> Optional[List[Dict[str, Any]]]:
        if dst != 0:
            raise ValueError("GrpcCommunicator gathers at the server (rank 0)")
        gen = self._gather_gen
        self._gather_gen += 1
        if self.rank == 0:
            own = {
                "rank": 0,
                "state": OrderedDict((k, np.array(v, copy=True)) for k, v in state.items()),
                "meta": dict(meta or {}),
            }
            self._state.push(gen, own)
            entries = self._state.wait_pushes(gen, self.world_size, self.timeout)
            received = sum(self._state_nbytes(e["state"]) for e in entries if e["rank"] != 0)
            self.stats.record(received=received)
            return sorted(entries, key=lambda e: e["rank"])
        self._call(
            "push_state",
            {"rank": self.rank, "gen": gen, "client_meta": _json_safe(meta or {})},
            dict(state),
        )
        return None

    def allreduce(self, vector: np.ndarray, op: str = "mean") -> np.ndarray:
        gen = self._reduce_gen
        self._reduce_gen += 1
        shape = np.shape(vector)
        flat = np.asarray(vector, dtype=np.float32).ravel()
        if self.rank == 0:
            result = self._state.reduce(gen, op, flat, self.timeout)
            return np.asarray(result, dtype=np.float32).reshape(shape)
        _, arrays = self._call("reduce", {"gen": gen, "op": op}, {"v": flat})
        return arrays["v"].reshape(shape)

    def barrier(self) -> None:
        gen = self._barrier_gen
        self._barrier_gen += 1
        if self.rank == 0:
            self._state.barrier(gen, self.timeout)
        else:
            self._call("barrier", {"gen": gen}, {})

    # -- point-to-point (relayed through the server) ------------------------------
    def send(self, payload: Dict[str, Any], dst: int, tag: int = 0) -> None:
        meta, arrays = _split_payload(payload)
        if self.rank == 0:
            self._state.mailbox_put(dst, tag, meta, arrays)
            self._account(self._state_nbytes(arrays), "send", "rpc")
        else:
            self._call("p2p_put", {"dst": dst, "tag": tag, "payload_meta": _json_safe(meta)}, arrays)

    def recv(self, src: int, tag: int = 0, timeout: Optional[float] = None) -> Dict[str, Any]:
        wait = timeout if timeout is not None else self.timeout
        if self.rank == 0:
            meta, arrays = self._state.mailbox_get(0, tag, wait)
        else:
            rmeta, arrays = self._call("p2p_get", {"rank": self.rank, "tag": tag, "timeout": wait}, {})
            meta = rmeta.get("payload_meta", {})
        merged: Dict[str, Any] = dict(meta)
        merged.update(arrays)
        return merged


def _split_payload(payload: Mapping[str, Any]) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Separate a mixed payload into JSON-safe metadata and array parts."""
    meta: Dict[str, Any] = {}
    arrays: Dict[str, np.ndarray] = {}
    for k, v in payload.items():
        if isinstance(v, np.ndarray):
            arrays[k] = v
        else:
            meta[k] = v
    return meta, arrays
