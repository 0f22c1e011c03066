"""A minimal RESP (REdis Serialization Protocol) client on raw sockets.

The redis broker needs exactly one queue primitive set — lists with
blocking pops, hashes, strings, pipelines and MULTI/EXEC — and the
container image deliberately ships no redis client library, so this
module speaks RESP2 directly over a TCP socket with the standard library
only.  It works against a real redis server (the CI broker-smoke job's
service container) and against the in-repo :mod:`repro.runtime.miniredis`
test server, which implements the same command subset.

Not a general client: no pooling, no pub/sub, no RESP3, no cluster.  One
:class:`RespClient` is one socket and is **not** thread-safe — each thread
owns its own connection (redis semantics make that the natural shape for
blocking pops anyway).

:class:`RespReader` is the one RESP parser in the tree: the client reads
replies with it, MiniRedis reads commands with it.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

__all__ = ["POP_SLACK", "RespClient", "RespError", "RespReader"]

Value = Union[bytes, str, int, float]

#: bytes asked of one ``recv``: bounded, so a connection's buffer stays small
_RECV_SIZE = 65536
#: a blocking pop's socket timeout is its own timeout plus this
POP_SLACK = 10.0


class RespError(ConnectionError):
    """Protocol-level failure or server-reported error (``-ERR ...``)."""


def _as_bytes(value: Value) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf8")
    if isinstance(value, (int, float)):
        return repr(value).encode("ascii")
    raise TypeError(f"cannot send {type(value).__name__} over RESP")


def _encode_command(args: Tuple[Value, ...], parts: List[bytes]) -> None:
    """Append one command's RESP encoding to ``parts`` (values are not
    copied: the caller joins every part once)."""
    if not args:
        raise ValueError("empty RESP command")
    parts.append(b"*%d\r\n" % len(args))
    for arg in args:
        data = _as_bytes(arg)
        parts += (b"$%d\r\n" % len(data), data, b"\r\n")


def _checked(replies: List[Any]) -> List[Any]:
    """``replies``, unless one is a server error: then that is raised."""
    for reply in replies:
        if isinstance(reply, RespError):
            raise reply
    return replies


class RespReader:
    """RESP parsing over a ``recv(size) -> bytes`` callable, by offset into
    its buffer: a line or a bulk value costs a slice of its own bytes, never
    a copy of everything unread.  An empty ``recv`` raises :class:`RespError`."""

    def __init__(self, recv: Callable[[int], bytes]) -> None:
        self._recv = recv
        self._buf = b""
        self._pos = 0

    def _fill(self, need: int) -> None:
        """Receive until ``need`` bytes are unread, dropping the consumed prefix."""
        chunks = [self._buf[self._pos:]]
        have = len(chunks[0])
        while have < need:
            chunk = self._recv(_RECV_SIZE)
            if not chunk:
                raise RespError("redis connection closed mid-reply")
            chunks.append(chunk)
            have += len(chunk)
        self._buf, self._pos = b"".join(chunks), 0

    def read_line(self) -> bytes:
        while True:
            idx = self._buf.find(b"\r\n", self._pos)
            if idx >= 0:
                line, self._pos = self._buf[self._pos:idx], idx + 2
                return line
            self._fill(len(self._buf) - self._pos + 1)

    def read_bulk(self, n: int) -> bytes:
        """``n`` bytes of a bulk value, consuming its trailing CRLF too."""
        if len(self._buf) - self._pos < n + 2:
            self._fill(n + 2)
        start, self._pos = self._pos, self._pos + n + 2
        return self._buf[start:start + n]

    def read_reply(self) -> Any:
        line = self.read_line()
        marker, body = line[:1], line[1:]
        if marker == b"$":
            length = int(body)
            return None if length < 0 else self.read_bulk(length)
        if marker == b"+":
            return body
        if marker == b":":
            return int(body)
        if marker == b"*":
            count = int(body)
            return None if count < 0 else [self.read_reply() for _ in range(count)]
        if marker == b"-":
            # a value, not a raise: the replies after it must still be read
            return RespError(body.decode("utf8", "replace"))
        raise RespError(f"unknown RESP reply marker {marker!r}")


class RespClient:
    """One RESP connection (see module docstring for scope)."""

    def __init__(self, host: str, port: int, db: int = 0,
                 password: Optional[str] = None, timeout: float = 10.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        try:
            self._sock = socket.create_connection((host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise RespError(f"cannot connect to redis at {host}:{port}: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = RespReader(self._sock.recv)
        if password:
            self.execute("AUTH", password)
        if db:
            self.execute("SELECT", db)

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "RespClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def execute(self, *args: Value, timeout: Optional[float] = None) -> Any:
        """Send one command, return its decoded reply.

        ``timeout`` overrides the socket timeout for this command — pass a
        generous value for blocking pops (``BLPOP``/``BRPOP``).  Server
        errors raise :class:`RespError`.
        """
        return self.pipeline([args], timeout=timeout)[0]

    def pipeline(self, commands: Sequence[Tuple[Value, ...]],
                 timeout: Optional[float] = None) -> List[Any]:
        """Send ``commands`` in one write and return their replies in order.

        A server error raises only after every reply has been read, so the
        connection stays in step with the server either way.
        """
        return _checked(self._exchange(commands, timeout))

    def _exchange(self, commands: Sequence[Tuple[Value, ...]],
                  timeout: Optional[float]) -> List[Any]:
        """One round trip; server errors come back as :class:`RespError`
        values in their reply slots."""
        parts: List[bytes] = []
        for cmd in commands:
            _encode_command(cmd, parts)
        payload = b"".join(parts)
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            self._sock.sendall(payload)
            return [self._reader.read_reply() for _ in commands]
        except socket.timeout as exc:
            raise RespError(
                f"redis command {commands[0][0]!r} timed out after "
                f"{timeout if timeout is not None else self.timeout}s"
            ) from exc
        except OSError as exc:
            raise RespError(f"redis connection lost during {commands[0][0]!r}: {exc}") from exc
        finally:
            if timeout is not None:
                self._sock.settimeout(self.timeout)

    # convenience wrappers used by the broker/worker -------------------
    def ping(self) -> bool:
        return self.execute("PING") == b"PONG"

    def brpop(self, key: Value, timeout: float) -> Optional[Tuple[bytes, bytes]]:
        reply = self.execute("BRPOP", key, timeout, timeout=timeout + POP_SLACK)
        return None if reply is None else (reply[0], reply[1])

    def multi(self, commands: List[Tuple[Value, ...]]) -> List[Any]:
        """Run ``commands`` atomically inside MULTI/EXEC, in one round trip.

        A command the server refuses to queue makes it discard the whole
        transaction (``EXECABORT``); that, or an error inside EXEC's reply,
        raises once every reply has been read.
        """
        replies = self._exchange([("MULTI",), *commands, ("EXEC",)], None)
        result, refused = replies[-1], [r for r in replies[1:-1] if r != b"QUEUED"]
        if refused or not isinstance(result, list):
            raise RespError(f"transaction aborted: {result} (refused: {refused})")
        return _checked(result)

    def hgetall(self, key: Value) -> dict:
        flat = self.execute("HGETALL", key) or []
        return {flat[i]: flat[i + 1] for i in range(0, len(flat), 2)}
