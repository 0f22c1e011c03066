"""TCP transport edge cases: framing, limits, failures, restarts.

The RPC communicator's ``tcp`` transport rides on this seam, so the corner
cases that only show up on real sockets — partial reads straddling frame
boundaries, hostile length prefixes, a server dying under an in-flight
call, rebinding a just-released port — get pinned here rather than
discovered in production.
"""

import socket
import struct
import threading
import time

import pytest

from repro.comm.transport import (
    MAX_FRAME_BYTES,
    TcpChannel,
    TcpServerTransport,
    TransportError,
    _recv_frame,
    make_channel,
)


def echo_handler(frame: bytes) -> bytes:
    return b"echo:" + frame


@pytest.fixture
def server():
    srv = TcpServerTransport("127.0.0.1", 0)
    srv.start(echo_handler)
    yield srv
    srv.stop()


# ------------------------------------------------------------ partial reads
def test_frame_reassembled_from_single_byte_sends(server):
    """A frame trickled one byte at a time must reassemble identically."""
    payload = b"x" * 300
    framed = struct.pack("<I", len(payload)) + payload
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(len(framed)):
            sock.sendall(framed[i:i + 1])
        sock.settimeout(5)
        reply = _recv_frame(sock)
    assert reply == b"echo:" + payload


def test_two_frames_in_one_segment(server):
    """Back-to-back frames written in one send() must not bleed together."""
    a, b = b"first", b"second-and-longer"
    blob = (struct.pack("<I", len(a)) + a + struct.pack("<I", len(b)) + b)
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(blob)
        sock.settimeout(5)
        assert _recv_frame(sock) == b"echo:" + a
        assert _recv_frame(sock) == b"echo:" + b


def test_large_frame_roundtrip(server):
    """A multi-megabyte frame crosses many recv() calls and survives."""
    payload = bytes(range(256)) * 16384  # 4 MiB
    chan = TcpChannel("127.0.0.1", server.port)
    try:
        assert chan.call(payload) == b"echo:" + payload
    finally:
        chan.close()


# ------------------------------------------------------------ oversized frames
def test_recv_frame_rejects_oversized_prefix():
    """A hostile/corrupt length prefix fails before buffering gigabytes."""
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
        right.settimeout(5)
        with pytest.raises(TransportError, match="exceeds"):
            _recv_frame(right)
    finally:
        left.close()
        right.close()


def test_transport_error_is_connection_error():
    # existing `except (ConnectionError, OSError)` recovery paths must
    # keep catching the new typed failure
    assert issubclass(TransportError, ConnectionError)


def test_server_drops_connection_on_oversized_frame():
    srv = TcpServerTransport("127.0.0.1", 0, max_frame=1024)
    srv.start(echo_handler)
    try:
        with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
            sock.sendall(struct.pack("<I", 4096))  # claims 4 KiB > 1 KiB cap
            sock.settimeout(5)
            # the server abandons the connection: we observe EOF, not a reply
            assert sock.recv(1) == b""
        # ...and stays healthy for well-behaved clients
        chan = TcpChannel("127.0.0.1", srv.port)
        try:
            assert chan.call(b"ok") == b"echo:ok"
        finally:
            chan.close()
    finally:
        srv.stop()


def test_channel_rejects_oversized_reply(server):
    chan = TcpChannel("127.0.0.1", server.port, max_frame=8)
    try:
        with pytest.raises(TransportError, match="exceeds"):
            chan.call(b"this reply will exceed eight bytes")
    finally:
        chan.close()


# ------------------------------------------------------------ server death
def test_server_close_fails_in_flight_call():
    """Stopping the server surfaces a ConnectionError on the blocked caller."""
    release = threading.Event()

    def slow_handler(frame: bytes) -> bytes:
        release.wait(timeout=10)
        return frame

    srv = TcpServerTransport("127.0.0.1", 0)
    srv.start(slow_handler)
    chan = TcpChannel("127.0.0.1", srv.port, call_timeout=10)
    errors = []

    def call():
        try:
            chan.call(b"stuck")
        except (ConnectionError, OSError) as exc:
            errors.append(exc)

    t = threading.Thread(target=call, daemon=True)
    t.start()
    time.sleep(0.2)  # let the call reach the handler
    chan.close()  # sever the socket under the in-flight call
    release.set()
    srv.stop()
    t.join(timeout=5)
    assert not t.is_alive()
    assert errors, "in-flight call must fail loudly, not hang"
    chan.close()


def test_call_after_server_stop_raises(server):
    chan = TcpChannel("127.0.0.1", server.port)
    try:
        assert chan.call(b"warm") == b"echo:warm"
        server.stop()
        with pytest.raises((ConnectionError, OSError)):
            # the kernel may need one extra round-trip to notice the close
            chan.call(b"a")
            chan.call(b"b")
    finally:
        chan.close()


# ------------------------------------------------------------ port reuse
def test_port_reuse_after_restart():
    """A restarted server rebinds the same port immediately (SO_REUSEADDR)."""
    first = TcpServerTransport("127.0.0.1", 0)
    first.start(echo_handler)
    port = first.port
    chan = TcpChannel("127.0.0.1", port)
    assert chan.call(b"one") == b"echo:one"
    chan.close()
    first.stop()

    second = TcpServerTransport("127.0.0.1", port)
    second.start(echo_handler)  # must not raise EADDRINUSE
    try:
        assert second.port == port
        chan = TcpChannel("127.0.0.1", port)
        try:
            assert chan.call(b"two") == b"echo:two"
        finally:
            chan.close()
    finally:
        second.stop()


# ------------------------------------------------------------ connect
def test_connect_refused_fails_fast_naming_the_endpoint():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    start = time.perf_counter()
    with pytest.raises(TransportError, match=f"could not connect to 127.0.0.1:{free_port}"):
        TcpChannel("127.0.0.1", free_port, connect_timeout=0.5)
    assert time.perf_counter() - start < 2.0


def test_make_channel_forwards_tcp_options(server):
    chan = make_channel("tcp", f"127.0.0.1:{server.port}", connect_timeout=0.5, max_frame=8)
    try:
        with pytest.raises(TransportError, match="exceeds"):
            chan.call(b"this reply will exceed eight bytes")
    finally:
        chan.close()
