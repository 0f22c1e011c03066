"""MiniRedis: an in-process RESP server, the engine side of ``tcp://``.

A ``tcp://host:port`` engine (:class:`~repro.runtime.redis.TcpBroker`)
hosts one of these at its address, so workers reach the redis turn loop
with no redis server installed: a tiny TCP server speaking RESP2 and
implementing exactly the command subset the broker and workers use
(strings, hashes, lists with blocking pops, MULTI/EXEC).  Workers connect
to it exactly as they would to a production redis — same wire protocol,
same client (:mod:`repro.runtime.resp`).  The ``redis://`` tests and the
``redis_worker`` benchmark run against it too, and CI points the same
tests at a genuine redis service container via ``REDIS_URL``.

Fidelity notes (deliberate simplifications):

* commands are parsed by :class:`~repro.runtime.resp.RespReader`, the
  client's own reader; each reply is written as soon as it is computed
  (coalescing a pipeline's replies into one write was measured on the
  ``redis_worker`` benchmark and bought nothing end to end);
* single global lock — commands are atomic, as in redis's event loop;
* ``BLPOP``/``BRPOP`` wait on a condition variable with the redis nil-on-
  timeout contract;
* ``MULTI``/``EXEC`` queue per-connection and execute under the lock
  (no WATCH); an unknown command refused while queueing aborts the
  transaction with ``EXECABORT``;
* started with a ``password``, a connection is refused every command
  (``NOAUTH``) until it sends ``AUTH`` with that password (``WRONGPASS``
  otherwise), as redis's ``requirepass`` does; started without one, any
  ``AUTH`` is accepted;
* no persistence, expiry, or pub/sub.
"""

from __future__ import annotations

import hmac
import socket
import socketserver
import threading
import time
from typing import Any, Dict, List, Optional

from repro.runtime.resp import RespReader

__all__ = ["MiniRedis"]

_NIL = object()  # sentinel distinguishing "no reply value" from None (nil)

#: the one gate in front of :meth:`MiniRedis.dispatch` and MULTI (which then
#: discards the transaction at EXEC, as redis does): a handler added without
#: its name here is refused everywhere, not only inside MULTI
_COMMANDS = frozenset("PING ECHO SELECT FLUSHDB FLUSHALL SET GET INCR DEL EXISTS KEYS HSET "
                      "HGET HMGET HDEL HEXISTS HLEN HGETALL LPUSH RPUSH LPOP RPOP LLEN LRANGE "
                      "BLPOP BRPOP".split())


class _Simple(bytes):
    """A RESP simple string (``+OK``), as opposed to a bulk string."""


_OK = _Simple(b"OK")
_PONG = _Simple(b"PONG")


class _Error(Exception):
    """Reported to the client as a RESP error, never raised out of the server."""


class _Handler(socketserver.BaseRequestHandler):
    server: "MiniRedisServer"

    def setup(self) -> None:
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = RespReader(self.request.recv)
        self._multi: Optional[List[List[bytes]]] = None
        self._multi_refused = False
        self._authed = self.server.mini.password is None

    # -- RESP framing: the client's reader -----------------------------
    def _read_command(self) -> List[bytes]:
        line = self._reader.read_line()
        if not line.startswith(b"*"):
            raise _Error(f"ERR protocol: expected array, got {line[:16]!r}")
        args: List[bytes] = []
        for _ in range(int(line[1:])):
            header = self._reader.read_line()
            if not header.startswith(b"$"):
                raise ValueError(f"expected a bulk string, got {header[:16]!r}")
            args.append(self._reader.read_bulk(int(header[1:])))
        return args

    def _send(self, reply: Any) -> None:
        parts: List[bytes] = []
        _encode_reply(reply, parts)
        self.request.sendall(b"".join(parts))

    # -- main loop -----------------------------------------------------
    def handle(self) -> None:
        while not self.server.mini.closed:
            try:
                args = self._read_command()
            except _Error as exc:
                self._send(exc)
                continue
            except (OSError, ValueError):
                return  # peer gone (RespError included) or unparseable input
            if not args:
                continue
            cmd = args[0].upper().decode("ascii", "replace")
            try:
                if cmd == "AUTH":
                    self.server.mini.authenticate(args[1:])
                    self._authed = True
                    self._send(_OK)
                elif not self._authed:
                    raise _Error("NOAUTH Authentication required.")
                elif cmd == "MULTI":
                    self._multi, self._multi_refused = [], False
                    self._send(_OK)
                elif cmd == "DISCARD":
                    self._multi = None
                    self._send(_OK)
                elif cmd == "EXEC":
                    queued, self._multi = self._multi, None
                    if queued is None:
                        raise _Error("ERR EXEC without MULTI")
                    if self._multi_refused:
                        raise _Error("EXECABORT Transaction discarded because of "
                                     "previous errors.")
                    self._send(self.server.mini.exec_multi(queued))
                elif cmd not in _COMMANDS:
                    self._multi_refused = self._multi is not None
                    raise _Error(f"ERR unknown command '{cmd}'")
                elif self._multi is not None:
                    self._multi.append(args)
                    self._send(_Simple(b"QUEUED"))
                else:
                    self._send(self.server.mini.dispatch(args))
            except _Error as exc:
                self._send(exc)
            except OSError:
                return


def _encode_reply(reply: Any, parts: List[bytes]) -> None:
    """Append ``reply``'s RESP encoding to ``parts`` (joined once by the caller)."""
    if isinstance(reply, _Error):
        parts.append(b"-%s\r\n" % str(reply).encode("utf8", "replace"))
    elif isinstance(reply, _Simple):
        parts.append(b"+%s\r\n" % bytes(reply))
    elif isinstance(reply, bytes):
        parts += (b"$%d\r\n" % len(reply), reply, b"\r\n")
    elif isinstance(reply, (bool, int)):
        parts.append(b":%d\r\n" % int(reply))
    elif reply is None:
        parts.append(b"$-1\r\n")
    elif reply is _NIL:
        parts.append(b"*-1\r\n")
    elif isinstance(reply, (list, tuple)):
        parts.append(b"*%d\r\n" % len(reply))
        for item in reply:
            _encode_reply(item, parts)
    else:
        raise TypeError(f"cannot encode reply {type(reply).__name__}")


class MiniRedisServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    mini: "MiniRedis"


class MiniRedis:
    """The datastore + server lifecycle.  ``start()`` binds ``(host, port)``
    (port 0: an ephemeral one, read back from :attr:`port`) and returns the
    instance; ``url`` is ready for ``Broker(...)`` or a worker subprocess."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 password: Optional[str] = None) -> None:
        self._host = host
        self._port = int(port)
        self.password = password
        self.data: Dict[bytes, Any] = {}
        self.lock = threading.Lock()
        self.wakeup = threading.Condition(self.lock)
        self.closed = False
        self._server: Optional[MiniRedisServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "MiniRedis":
        server = MiniRedisServer((self._host, self._port), _Handler)
        server.mini = self
        self._server = server
        self._port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            name="miniredis", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self.closed = True
        with self.lock:
            self.wakeup.notify_all()
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MiniRedis":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        auth = "" if self.password is None else f":{self.password}@"
        return f"redis://{auth}{self._host}:{self._port}/0"

    def authenticate(self, args: List[bytes]) -> None:
        """Check ``AUTH [user] password``'s password (a server started
        without one takes any)."""
        if len(args) not in (1, 2):
            raise _Error("ERR wrong number of arguments for 'auth' command")
        if self.password is not None and not hmac.compare_digest(
                args[-1], self.password.encode("utf8")):
            raise _Error("WRONGPASS invalid username-password pair or user is disabled.")

    # -- command dispatch (atomic under self.lock) ---------------------
    def dispatch(self, args: List[bytes]) -> Any:
        cmd = args[0].upper().decode("ascii", "replace")
        if cmd in ("BLPOP", "BRPOP"):
            return self._blocking_pop(cmd, args[1:])
        with self.lock:
            return self._apply(cmd, args[1:])

    def exec_multi(self, queued: List[List[bytes]]) -> List[Any]:
        with self.lock:
            replies = []
            for args in queued:
                cmd = args[0].upper().decode("ascii", "replace")
                try:
                    replies.append(self._apply(cmd, args[1:]))
                except _Error as exc:
                    replies.append(exc)
            return replies

    # -- primitives ----------------------------------------------------
    def _list(self, key: bytes) -> List[bytes]:
        value = self.data.get(key)
        if value is None:
            value = self.data[key] = []
        elif not isinstance(value, list):
            raise _Error("WRONGTYPE Operation against a key holding the wrong kind of value")
        return value

    def _hash(self, key: bytes) -> Dict[bytes, bytes]:
        value = self.data.get(key)
        if value is None:
            value = self.data[key] = {}
        elif not isinstance(value, dict):
            raise _Error("WRONGTYPE Operation against a key holding the wrong kind of value")
        return value

    def _blocking_pop(self, cmd: str, args: List[bytes]) -> Any:
        keys, timeout = args[:-1], float(args[-1])
        deadline = None if timeout == 0 else time.monotonic() + timeout
        side = 0 if cmd == "BLPOP" else -1
        with self.lock:
            while not self.closed:
                for key in keys:
                    value = self.data.get(key)
                    if isinstance(value, list) and value:
                        item = value.pop(side)
                        if not value:
                            del self.data[key]
                        return [key, item]
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return _NIL
                self.wakeup.wait(timeout=remaining if remaining is not None else 0.25)
            return _NIL

    def _apply(self, cmd: str, args: List[bytes]) -> Any:  # noqa: PLR0911,PLR0912
        data = self.data
        if cmd == "PING":
            return _PONG
        if cmd == "ECHO":
            return args[0]
        if cmd == "SELECT":
            return _OK  # single keyspace; db index accepted and ignored
        if cmd in ("FLUSHDB", "FLUSHALL"):
            data.clear()
            return _OK
        if cmd == "SET":
            data[args[0]] = args[1]
            return _OK
        if cmd == "GET":
            value = data.get(args[0])
            if value is not None and not isinstance(value, bytes):
                raise _Error("WRONGTYPE Operation against a key holding the wrong kind of value")
            return value
        if cmd == "INCR":
            value = int(data.get(args[0], b"0"))
            data[args[0]] = str(value + 1).encode("ascii")
            return value + 1
        if cmd == "DEL":
            removed = 0
            for key in args:
                removed += 1 if data.pop(key, None) is not None else 0
            return removed
        if cmd == "EXISTS":
            return sum(1 for key in args if key in data)
        if cmd == "KEYS":
            # only the '*' pattern (all keys); enough for test cleanup
            if args[0] != b"*":
                raise _Error("ERR miniredis KEYS supports only the '*' pattern")
            return sorted(data)
        # hashes -------------------------------------------------------
        if cmd == "HSET":
            h = self._hash(args[0])
            added = 0
            for i in range(1, len(args) - 1, 2):
                added += 0 if args[i] in h else 1
                h[args[i]] = args[i + 1]
            return added
        if cmd == "HGET":
            value = data.get(args[0])
            if value is None:
                return None
            if not isinstance(value, dict):
                raise _Error("WRONGTYPE Operation against a key holding the wrong kind of value")
            return value.get(args[1])
        if cmd == "HMGET":
            value = data.get(args[0])
            if value is not None and not isinstance(value, dict):
                raise _Error("WRONGTYPE Operation against a key holding the wrong kind of value")
            return [None if value is None else value.get(f) for f in args[1:]]
        if cmd == "HDEL":
            value = data.get(args[0])
            if not isinstance(value, dict):
                return 0
            removed = sum(1 for f in args[1:] if value.pop(f, None) is not None)
            if not value:
                del data[args[0]]
            return removed
        if cmd == "HEXISTS":
            value = data.get(args[0])
            return 1 if isinstance(value, dict) and args[1] in value else 0
        if cmd == "HLEN":
            value = data.get(args[0])
            return len(value) if isinstance(value, dict) else 0
        if cmd == "HGETALL":
            value = data.get(args[0])
            if value is None:
                return []
            if not isinstance(value, dict):
                raise _Error("WRONGTYPE Operation against a key holding the wrong kind of value")
            flat: List[bytes] = []
            for field, item in value.items():
                flat.extend((field, item))
            return flat
        # lists --------------------------------------------------------
        if cmd in ("LPUSH", "RPUSH"):
            lst = self._list(args[0])
            for item in args[1:]:
                if cmd == "LPUSH":
                    lst.insert(0, item)
                else:
                    lst.append(item)
            self.wakeup.notify_all()
            return len(lst)
        if cmd in ("LPOP", "RPOP"):
            value = data.get(args[0])
            if not isinstance(value, list) or not value:
                return None
            item = value.pop(0 if cmd == "LPOP" else -1)
            if not value:
                del data[args[0]]
            return item
        if cmd == "LLEN":
            value = data.get(args[0])
            return len(value) if isinstance(value, list) else 0
        if cmd == "LRANGE":
            value = data.get(args[0])
            if not isinstance(value, list):
                return []
            start, stop = int(args[1]), int(args[2])
            stop = len(value) if stop == -1 else stop + 1
            return list(value[start:stop])
        raise _Error(f"ERR unknown command '{cmd}' (miniredis implements the broker subset)")
