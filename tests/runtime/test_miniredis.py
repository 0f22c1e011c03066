"""The stdlib RESP test server + client pair behind the broker tests.

MiniRedis implements exactly the command subset the broker and worker use;
these tests pin that subset's redis semantics (binary-safe values, nil
replies, blocking-pop wakeups, MULTI/EXEC atomicity, WRONGTYPE) so the
pair stays a faithful stand-in for a real server.
"""

import random
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.runtime import miniredis, resp
from repro.runtime.miniredis import MiniRedis
from repro.runtime.resp import RespClient, RespError, RespReader
from tests.runtime.resp_helpers import connect_url


@pytest.fixture()
def server():
    with MiniRedis() as srv:
        yield srv


@pytest.fixture()
def conn(server):
    with connect_url(server.url) as client:
        yield client


def test_url_and_ping(server, conn):
    assert server.url.startswith("redis://127.0.0.1:")
    assert conn.ping()
    assert conn.execute("ECHO", b"\x00binary\xff") == b"\x00binary\xff"


def test_strings(conn):
    assert conn.execute("GET", "k") is None
    assert conn.execute("SET", "k", b"\x01\x02\r\n\x03") == b"OK"
    assert conn.execute("GET", "k") == b"\x01\x02\r\n\x03"
    assert conn.execute("INCR", "n") == 1
    assert conn.execute("INCR", "n") == 2
    assert conn.execute("EXISTS", "k") == 1
    assert conn.execute("DEL", "k", "n") == 2
    assert conn.execute("EXISTS", "k") == 0


def test_simple_string_values_stay_bulk(conn):
    # a value beginning with "+" must come back as a bulk string, not be
    # mistaken for a RESP simple-string reply
    conn.execute("SET", "plus", "+OK")
    assert conn.execute("GET", "plus") == b"+OK"


def test_hashes(conn):
    assert conn.execute("HSET", "h", "a", "1", "b", "2") == 2
    assert conn.execute("HGET", "h", "a") == b"1"
    assert conn.execute("HGET", "h", "zzz") is None
    assert conn.execute("HLEN", "h") == 2
    assert conn.hgetall("h") == {b"a": b"1", b"b": b"2"}
    assert conn.execute("HDEL", "h", "a") == 1
    assert conn.execute("HEXISTS", "h", "a") == 0


def test_hmget_answers_every_field_in_order(conn):
    # beside HGET: nil for each missing field, and for every field of a
    # missing key; WRONGTYPE on a key that is not a hash
    conn.execute("HSET", "hm", "a", "1", "b", "2")
    assert conn.execute("HMGET", "hm", "b", "zzz", "a") == [b"2", None, b"1"]
    assert conn.execute("HMGET", "absent", "a", "b") == [None, None]
    conn.execute("SET", "str", "x")
    with pytest.raises(RespError, match="WRONGTYPE"):
        conn.execute("HMGET", "str", "a")


def test_variadic_replies_count_like_redis(conn):
    # HSET: fields added (an overwritten field is not added); HDEL: fields
    # removed (a missing one is not); LPUSH: the list's length afterwards
    assert conn.execute("HSET", "v", "a", "1", "b", "2") == 2
    assert conn.execute("HSET", "v", "b", "3", "c", "4") == 1
    assert conn.execute("HDEL", "v", "a", "c", "nope") == 2
    assert conn.hgetall("v") == {b"b": b"3"}
    assert conn.execute("LPUSH", "vl", "x", "y") == 2
    assert conn.execute("LPUSH", "vl", "z") == 3


def test_pipeline_reads_every_reply_before_raising(conn):
    # one write, the replies in order; an error in the middle raises only
    # after the replies behind it are read, so the next command is in step
    assert conn.pipeline([("SET", "p", "1"), ("GET", "p"), ("HMGET", "ph", "f")]) == [
        b"OK", b"1", [None]]
    with pytest.raises(RespError, match="WRONGTYPE"):
        conn.pipeline([("HGET", "p", "f"), ("SET", "after", "2")])
    assert conn.execute("GET", "after") == b"2"
    assert conn.pipeline([]) == []


def test_multi_aborts_on_a_command_it_cannot_queue(conn):
    # as redis does: the refused command poisons the transaction, EXEC
    # answers EXECABORT, nothing runs, and the connection stays in step
    with pytest.raises(RespError, match="EXECABORT"):
        conn.multi([("SET", "m", "1"), ("NOSUCHCMD", "m")])
    assert conn.execute("GET", "m") is None
    assert conn.multi([("SET", "m", "1"), ("GET", "m")]) == [b"OK", b"1"]


def test_one_command_list_gates_dispatch_and_multi(server, conn):
    # the list MULTI checks is the list the server serves: a command outside
    # it is refused outside MULTI too, and every command in it has a handler
    with pytest.raises(RespError, match="unknown command"):
        conn.execute("NOSUCHCMD", "k")
    for cmd in sorted(miniredis._COMMANDS):
        server.data.clear()
        try:
            server.dispatch([cmd.encode("ascii"), b"k", b"0", b"-1"])
        except miniredis._Error as exc:
            assert "unknown command" not in str(exc), cmd


def test_lists_fifo_order(conn):
    conn.execute("LPUSH", "q", "1")
    conn.execute("LPUSH", "q", "2")
    conn.execute("RPUSH", "q", "0")
    assert conn.execute("LLEN", "q") == 3
    # LPUSH head-inserts, RPUSH tail-appends; BRPOP drains the tail
    assert conn.brpop("q", 1.0) == (b"q", b"0")
    assert conn.brpop("q", 1.0) == (b"q", b"1")
    assert conn.execute("LPOP", "q") == b"2"


def test_brpop_times_out_with_nil(conn):
    start = time.monotonic()
    assert conn.brpop("empty", 0.2) is None
    assert time.monotonic() - start >= 0.15


def test_brpop_wakes_on_push_from_another_connection(server, conn):
    got = {}

    def pusher():
        time.sleep(0.1)
        with connect_url(server.url) as other:
            other.execute("LPUSH", "wake", "v")

    thread = threading.Thread(target=pusher)
    thread.start()
    got["item"] = conn.brpop("wake", 5.0)
    thread.join()
    assert got["item"] == (b"wake", b"v")


def test_multi_exec_is_atomic(server, conn):
    replies = conn.multi([
        ("HSET", "mh", "f", "v"),
        ("LPUSH", "ml", "x"),
        ("HDEL", "mh", "nope"),
    ])
    assert replies == [1, 1, 0]
    assert conn.execute("HGET", "mh", "f") == b"v"
    # DISCARD drops the queue
    conn.execute("MULTI")
    conn.execute("SET", "never", "1")
    conn.execute("DISCARD")
    assert conn.execute("GET", "never") is None


def test_wrongtype_errors(conn):
    conn.execute("SET", "s", "x")
    with pytest.raises(RespError, match="WRONGTYPE"):
        conn.execute("LPUSH", "s", "y")
    with pytest.raises(RespError, match="WRONGTYPE"):
        conn.execute("HGET", "s", "f")


def test_flushdb_and_keys(conn):
    conn.execute("SET", "a", "1")
    conn.execute("LPUSH", "b", "2")
    keys = sorted(conn.execute("KEYS", "*"))
    assert keys == [b"a", b"b"]
    conn.execute("FLUSHDB")
    assert conn.execute("KEYS", "*") == []


def test_select_and_auth_accepted(server):
    # single-keyspace server: SELECT/AUTH accepted for client compatibility
    with RespClient("127.0.0.1", server.port, db=3, password="pw") as client:
        assert client.ping()


def test_connect_refused_raises_resp_error():
    with pytest.raises(RespError, match="cannot connect"):
        RespClient("127.0.0.1", 1, timeout=0.5)


# --------------------------------------------------------------------------
# RESP framing: one reader under the client and the server alike
# --------------------------------------------------------------------------
class StubSocket:
    """Hands ``incoming`` over in chunks of ``chunk()`` bytes (then end of
    stream) and records every ``sendall``."""

    def __init__(self, incoming, chunk):
        self.incoming, self.chunk = incoming, chunk
        self.writes = []

    def recv(self, size):
        data = self.incoming[:min(size, self.chunk())]
        self.incoming = self.incoming[len(data):]
        return data

    def sendall(self, data):
        self.writes.append(bytes(data))

    def setsockopt(self, *args):
        pass

    def settimeout(self, timeout):
        pass

    def close(self):
        pass


def chunkers():
    rng = random.Random(27)
    return {"one-byte": lambda: 1, "random": lambda: rng.randint(1, 5000),
            "whole": lambda: 1 << 30}


BIG = bytes(range(256)) * 400  # 100 KiB: past one 64 KiB receive


def encode(commands):
    parts = []
    for command in commands:
        resp._encode_command(command, parts)
    return b"".join(parts)


@pytest.mark.parametrize("name", list(chunkers()))
def test_client_parses_replies_however_they_are_chunked(name, monkeypatch):
    replies = (b"+OK\r\n$%d\r\n%s\r\n*3\r\n$1\r\na\r\n$-1\r\n$0\r\n\r\n:42\r\n*-1\r\n"
               b"*2\r\n*1\r\n:-7\r\n+QUEUED\r\n-ERR boom\r\n" % (len(BIG), BIG))
    stub = StubSocket(replies, chunkers()[name])
    monkeypatch.setattr(resp.socket, "create_connection", lambda *args, **kwargs: stub)
    client = RespClient("stub", 0)
    assert client.pipeline([("SET", "k", BIG), ("GET", "k"), ("HMGET", "h", "a", "b", "c"),
                            ("INCR", "n"), ("BRPOP", "q", 1), ("X",)]) == [
        b"OK", BIG, [b"a", None, b""], 42, None, [[-7], b"QUEUED"]]
    with pytest.raises(RespError, match="boom"):
        client.execute("GET", "k")
    assert stub.writes[0] == encode([("SET", "k", BIG), ("GET", "k"), ("HMGET", "h", "a", "b", "c"),
                                     ("INCR", "n"), ("BRPOP", "q", 1), ("X",)])
    with pytest.raises(RespError, match="closed"):
        client.execute("PING")  # the stub's stream has ended


def serve(stub, count):
    """Run one MiniRedis connection handler over ``stub`` to end of stream;
    returns the ``count`` replies it wrote, parsed, and checks that was all."""
    miniredis._Handler(stub, ("stub", 0), SimpleNamespace(mini=MiniRedis()))
    reader = RespReader(StubSocket(b"".join(stub.writes), lambda: 1 << 30).recv)
    replies = [reader.read_reply() for _ in range(count)]
    with pytest.raises(RespError, match="closed"):
        reader.read_reply()
    return replies


@pytest.mark.parametrize("name", list(chunkers()))
def test_server_parses_commands_however_they_are_chunked(name):
    commands = [("SET", "k", BIG), ("GET", "k"), ("HSET", "h", "a", "1"),
                ("HMGET", "h", "a", "b"), ("MULTI",), ("LPUSH", "l", "x"), ("EXEC",),
                ("GET", "h")]
    replies = serve(StubSocket(encode(commands), chunkers()[name]), len(commands))
    assert replies[:7] == [b"OK", BIG, 1, [b"1", None], b"OK", b"QUEUED", [1]]
    assert isinstance(replies[7], RespError) and "WRONGTYPE" in str(replies[7])


def test_a_50_command_pipeline_is_answered_in_order():
    commands = [("RPUSH", "l", b"%d" % i) for i in range(49)] + [("LRANGE", "l", 0, -1)]
    stub = StubSocket(encode(commands), lambda: 1 << 30)
    replies = serve(stub, len(commands))
    assert replies == list(range(1, 50)) + [[b"%d" % i for i in range(49)]]


def test_a_blocking_pop_does_not_hold_back_the_replies_before_it(server):
    # GET's reply must arrive while the pop waits out its timeout, not
    # with the pop's nil
    with connect_url(server.url) as client:
        client.execute("SET", "k", "v")
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        start = time.monotonic()
        sock.sendall(encode([("GET", "k"), ("BRPOP", "empty", 2)]))
        assert sock.recv(64) == b"$1\r\nv\r\n"
        assert time.monotonic() - start < 1.5
        assert sock.recv(64) == b"*-1\r\n"
        assert time.monotonic() - start >= 1.9


def test_a_pop_woken_by_stop_still_gets_its_nil_reply():
    # stop() wakes the blocked pop and ends the handler loop: the nil it
    # computed must still be written before the connection closes
    got = {}

    def pop(client):
        try:
            got["reply"] = client.brpop("q", 30.0)
        except RespError as exc:
            got["error"] = exc

    with MiniRedis() as srv, connect_url(srv.url) as client:
        popper = threading.Thread(target=pop, args=(client,))
        popper.start()
        time.sleep(0.2)
        srv.stop()
        popper.join(timeout=10)
    assert not popper.is_alive()
    assert got == {"reply": None}
