"""Request/response transports under the RPC communicator.

Two interchangeable implementations:

* **inproc** — a process-global address registry; a client's ``call``
  invokes the server handler synchronously.  Zero setup, used in unit tests
  and single-process simulations.
* **tcp** — real localhost sockets with uint32 length-prefixed frames and a
  per-connection server thread; exercises genuine serialization and kernel
  round-trips for deployment-shaped runs.

Both move *frames* (bytes); the message semantics live in
:mod:`repro.comm.wire` and :mod:`repro.comm.rpc`.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "TransportError",
    "ServerTransport",
    "ClientChannel",
    "InProcServerTransport",
    "InProcChannel",
    "TcpServerTransport",
    "TcpChannel",
    "make_server_transport",
    "make_channel",
    "reset_inproc_registry",
    "MAX_FRAME_BYTES",
]

Handler = Callable[[bytes], bytes]

#: refuse frames larger than this (a corrupt or hostile length prefix would
#: otherwise make ``_read_exact`` try to buffer gigabytes before failing)
MAX_FRAME_BYTES = 1 << 30


class TransportError(ConnectionError):
    """A typed transport failure: connect retries exhausted, an oversized
    frame, or a peer that vanished mid-call.  Subclasses ``ConnectionError``
    so existing ``except (ConnectionError, OSError)`` sites keep working."""

_INPROC: Dict[str, "InProcServerTransport"] = {}
_INPROC_LOCK = threading.Lock()


def reset_inproc_registry() -> None:
    """Unbind every in-proc server address (between tests)."""
    with _INPROC_LOCK:
        _INPROC.clear()


class ServerTransport:
    """Accepts frames, returns response frames via a user handler."""

    def start(self, handler: Handler) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    @property
    def address(self) -> str:
        raise NotImplementedError


class ClientChannel:
    """Synchronous request/response channel to one server."""

    def call(self, frame: bytes) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# In-process
# ---------------------------------------------------------------------------


class InProcServerTransport(ServerTransport):
    def __init__(self, address: str) -> None:
        self._address = address
        self._handler: Optional[Handler] = None

    def start(self, handler: Handler) -> None:
        self._handler = handler
        with _INPROC_LOCK:
            if self._address in _INPROC:
                raise OSError(f"in-proc address already bound: {self._address}")
            _INPROC[self._address] = self

    def stop(self) -> None:
        with _INPROC_LOCK:
            if _INPROC.get(self._address) is self:
                del _INPROC[self._address]
        self._handler = None

    def _dispatch(self, frame: bytes) -> bytes:
        handler = self._handler
        if handler is None:
            raise ConnectionError(f"server at {self._address} is not running")
        return handler(frame)

    @property
    def address(self) -> str:
        return self._address


class InProcChannel(ClientChannel):
    def __init__(self, address: str) -> None:
        self._address = address

    def call(self, frame: bytes) -> bytes:
        with _INPROC_LOCK:
            server = _INPROC.get(self._address)
        if server is None:
            raise ConnectionError(f"no in-proc server at {self._address}")
        return server._dispatch(frame)


# ---------------------------------------------------------------------------
# TCP
# ---------------------------------------------------------------------------


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_frame(sock: socket.socket, frame: bytes) -> None:
    sock.sendall(struct.pack("<I", len(frame)) + frame)


def _recv_frame(sock: socket.socket, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    (length,) = struct.unpack("<I", _read_exact(sock, 4))
    if length > max_frame:
        raise TransportError(
            f"incoming frame of {length} bytes exceeds the {max_frame}-byte limit"
        )
    return _read_exact(sock, length)


class TcpServerTransport(ServerTransport):
    """Localhost TCP server; one thread per connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = MAX_FRAME_BYTES) -> None:
        self.host = host
        self.port = port
        self.max_frame = int(max_frame)
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._running = False
        self._handler: Optional[Handler] = None

    def start(self, handler: Handler) -> None:
        self._handler = handler
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((self.host, self.port))
        self.port = self._sock.getsockname()[1]
        self._sock.listen(64)
        self._sock.settimeout(0.2)
        self._running = True
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True, name="rpc-accept")
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while self._running:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True, name="rpc-conn").start()

    def _serve_conn(self, conn: socket.socket) -> None:
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while self._running:
                try:
                    # an oversized frame raises TransportError (a
                    # ConnectionError), dropping just this connection — the
                    # stream offset is unrecoverable past a bad length prefix
                    frame = _recv_frame(conn, self.max_frame)
                except (ConnectionError, OSError):
                    return
                handler = self._handler
                if handler is None:
                    return
                try:
                    response = handler(frame)
                except Exception:  # handler errors must not kill the server
                    from repro.comm.wire import encode_message

                    response = encode_message("error", {"error": "handler exception"}, {})
                try:
                    _send_frame(conn, response)
                except (ConnectionError, OSError):
                    return

    def stop(self) -> None:
        self._running = False
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        self._handler = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class TcpChannel(ClientChannel):
    """Persistent client connection with one in-flight request at a time.

    A refused or timed-out connect raises :class:`TransportError` naming
    the endpoint at once.
    """

    def __init__(self, host: str, port: int, connect_timeout: float = 5.0,
                 call_timeout: float = 120.0,
                 max_frame: int = MAX_FRAME_BYTES) -> None:
        self.host = host
        self.port = port
        self.max_frame = int(max_frame)
        self._lock = threading.Lock()
        try:
            self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        except OSError as exc:
            raise TransportError(f"could not connect to {host}:{port}: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(call_timeout)

    def call(self, frame: bytes) -> bytes:
        with self._lock:
            _send_frame(self._sock, frame)
            return _recv_frame(self._sock, self.max_frame)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def make_server_transport(kind: str, address: str) -> ServerTransport:
    """Create a server transport: ``kind`` is ``"inproc"`` or ``"tcp"``."""
    if kind == "inproc":
        return InProcServerTransport(address)
    if kind == "tcp":
        host, port = _split_hostport(address)
        return TcpServerTransport(host, port)
    raise ValueError(f"unknown transport kind {kind!r}")


def make_channel(kind: str, address: str, **options) -> ClientChannel:
    """Create a client channel; ``options`` reach the TCP constructor
    (``connect_timeout``, ``call_timeout``, ``max_frame``)."""
    if kind == "inproc":
        return InProcChannel(address)
    if kind == "tcp":
        host, port = _split_hostport(address)
        return TcpChannel(host, port, **options)
    raise ValueError(f"unknown transport kind {kind!r}")


def _split_hostport(address: str) -> Tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host:
        raise ValueError(f"tcp address must be host:port, got {address!r}")
    return host, int(port)
