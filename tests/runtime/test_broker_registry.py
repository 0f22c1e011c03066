"""The broker scheme registry: URL -> TurnBroker class, mirroring WorQ/pymq.

``Broker(url)`` dispatches on the URL scheme; unknown schemes must fail
loudly *naming the registered schemes* so a typo'd config points at the
fix, and ``ExperimentSpec`` validates its ``broker`` field through the
same registry at construction time (fail at spec build, not mid-run).
"""

import pytest

from repro.runtime import (
    BROKER_SCHEMES,
    Broker,
    MemoryBroker,
    RedisBroker,
    TurnBroker,
    broker_class,
    broker_scheme,
    register_broker,
)
from repro.runtime.broker import MAX_INFLIGHT
from repro.runtime.redis import ENGINE_WAIT_S, RedisLink, TcpBroker, parse_redis_url


def test_builtin_schemes_registered():
    assert BROKER_SCHEMES["memory"] is MemoryBroker
    assert BROKER_SCHEMES["redis"] is RedisBroker
    assert MemoryBroker.scheme == "memory"
    assert RedisBroker.scheme == "redis"
    assert not MemoryBroker.distributed
    assert RedisBroker.distributed
    assert sorted(BROKER_SCHEMES) == ["memory", "redis", "tcp"]


def test_tcp_scheme_builds_the_redis_turn_loop():
    # registered by module path and imported on first use, so a memory://
    # run never loads the redis turn loop (pinned in a fresh interpreter below)
    from repro.experiment import ExperimentSpec

    url = "tcp://127.0.0.1:0?hb=0.5&lease=3"
    cls = broker_class(url)
    assert cls is TcpBroker and BROKER_SCHEMES["tcp"] is cls
    assert issubclass(cls, RedisBroker) and cls.distributed
    broker = Broker(url, spec=ExperimentSpec(), num_clients=2)
    assert isinstance(broker, cls)
    assert broker.scheme == "tcp" and broker.url == url  # no server until attached
    assert (broker.cfg.heartbeat, broker.cfg.lease) == (0.5, 3.0)
    assert broker.describe()["scheme"] == "tcp"


def test_memory_run_does_not_import_the_control_plane():
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys; from repro.experiment import ExperimentSpec; "
        "from repro.runtime import broker_class; "
        "ExperimentSpec(pool_size=2); "
        "assert not {'repro.runtime.redis', 'repro.runtime.miniredis'} & set(sys.modules), 'eager'; "
        "broker_class('tcp://h:1'); assert 'repro.runtime.redis' in sys.modules; "
        "assert 'repro.runtime.miniredis' not in sys.modules, 'a tcp:// engine binds at attach'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


def test_worker_link_comes_from_the_same_registry():
    link = broker_class("redis://h:1/0").worker_link("redis://h:1/0?run=ns", "w1")
    assert isinstance(link, RedisLink) and link.worker_id == "w1"
    # a tcp:// worker speaks redis to the engine's own server, in the one
    # run it serves, and waits for an engine not up yet
    link = broker_class("tcp://h:7070").worker_link("tcp://h:7070", "w2")
    assert isinstance(link, RedisLink) and (link.cfg.host, link.cfg.port) == ("h", 7070)
    assert link.cfg.run and link.patience == ENGINE_WAIT_S
    with pytest.raises(ValueError, match="no worker to start"):
        MemoryBroker.worker_link("memory://", "w3")


@pytest.mark.parametrize("url", ["amqp://localhost", "sqs://queue", "nats://x:4222"])
def test_unknown_scheme_raises_naming_registered(url):
    with pytest.raises(ValueError) as err:
        broker_scheme(url)
    message = str(err.value)
    assert url in message
    # the error must name every registered scheme (the pymq registry idiom)
    assert "registered schemes" in message
    for known in BROKER_SCHEMES:
        assert known in message


@pytest.mark.parametrize("url", ["", None, 42, "not a url at all"])
def test_malformed_url_raises(url):
    with pytest.raises(ValueError):
        broker_scheme(url)


def test_broker_factory_builds_by_scheme():
    assert broker_class("memory://") is MemoryBroker
    assert broker_class("redis://localhost:6379/0") is RedisBroker
    with pytest.raises(ValueError, match="unknown scheme"):
        Broker("bogus://anywhere")


def test_register_broker_extends_the_registry():
    @register_broker("inproctest")
    class _TestBroker(TurnBroker):
        def __init__(self, url, **kwargs):
            super().__init__(url)

    try:
        assert broker_scheme("inproctest://x") == "inproctest"
        assert _TestBroker.scheme == "inproctest"
        built = Broker("inproctest://x")
        assert isinstance(built, _TestBroker)
        assert built.url == "inproctest://x"
    finally:
        del BROKER_SCHEMES["inproctest"]
    with pytest.raises(ValueError):
        broker_scheme("inproctest://x")


def test_default_window_scales_with_pool_size():
    class _Sized(TurnBroker):
        def __init__(self, n):
            self._n = n

        @property
        def pool_size(self):
            return self._n

    assert _Sized(1).default_window() == 4
    assert _Sized(4).default_window() == 8
    assert _Sized(16).default_window() == 32


# --------------------------------------------------------------------------
# redis URL parsing: protocol tuning rides in the query string
# --------------------------------------------------------------------------
def test_parse_redis_url_defaults():
    cfg = parse_redis_url("redis://localhost:6379/0")
    assert (cfg.host, cfg.port, cfg.db) == ("localhost", 6379, 0)
    assert cfg.workers == 0
    assert cfg.lease == 30.0 and cfg.claim == 10.0 and cfg.heartbeat == 1.0
    assert cfg.max_requeues == 2
    assert cfg.run == ""
    # the in-flight bound is one constant for every remote broker
    assert RedisBroker("redis://localhost:6379/0").describe()["inflight"] == MAX_INFLIGHT
    assert cfg.namespace() == "repro:run"


def test_parse_redis_url_params():
    cfg = parse_redis_url(
        "redis://broker.example:7777/3"
        "?workers=4&lease=5&claim=2&hb=0.25&requeues=1&run=abc123"
    )
    assert (cfg.host, cfg.port, cfg.db) == ("broker.example", 7777, 3)
    assert cfg.workers == 4
    assert cfg.lease == 5.0 and cfg.claim == 2.0 and cfg.heartbeat == 0.25
    assert cfg.max_requeues == 1
    assert cfg.namespace() == "repro:abc123"
    assert cfg.key("turns") == "repro:abc123:turns"


def test_parse_redis_url_rejects_bad_timing():
    for bad, match in (("lease=0", "must be positive"), ("claim=-1", "must be positive"),
                       ("hb=0", "must be positive"), ("lease=0.5&hb=1", "lease must exceed hb"),
                       ("inflight=64", r"unknown parameters \['inflight'\]")):
        with pytest.raises(ValueError, match=match):
            parse_redis_url(f"redis://h:1/0?{bad}")


def test_parse_redis_url_rejects_unknown_keys():
    # `?leese=5` used to run with the default lease; now it names the typo
    with pytest.raises(ValueError, match=r"unknown parameters \['leese'\].*'lease'"):
        parse_redis_url("redis://localhost:6379/0?leese=5")


def test_parse_redis_url_keeps_an_explicit_port_0():
    # a tcp:// engine binds an ephemeral port from it; only an absent port
    # means redis's default
    assert parse_redis_url("redis://h:0/0").port == 0
    assert parse_redis_url("redis://h/0").port == 6379


def test_with_run_pins_the_namespace():
    cfg = parse_redis_url("redis://h:6379/0?workers=2&run=old")
    url = cfg.with_run("fresh")
    assert "run=fresh" in url and "run=old" not in url
    assert "workers=2" in url
    # the rewritten URL parses back to the same endpoint
    again = parse_redis_url(url)
    assert again.run == "fresh" and again.workers == 2
