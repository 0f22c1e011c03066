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
from repro.runtime.redis import RedisLink, parse_redis_url


def test_builtin_schemes_registered():
    assert BROKER_SCHEMES["memory"] is MemoryBroker
    assert BROKER_SCHEMES["redis"] is RedisBroker
    assert MemoryBroker.scheme == "memory"
    assert RedisBroker.scheme == "redis"
    assert not MemoryBroker.distributed
    assert RedisBroker.distributed
    assert sorted(BROKER_SCHEMES) == ["inproc", "memory", "redis", "tcp"]
    assert not MemoryBroker.live and not RedisBroker.live


@pytest.mark.parametrize("url", ["tcp://127.0.0.1:0?min_nodes=2", "inproc://registry-test"])
def test_cluster_schemes_build_the_live_broker(url):
    # registered by module path and imported on first use, so a memory://
    # run never loads the control plane (pinned in a fresh interpreter below)
    from repro.experiment import ExperimentSpec

    cls = broker_class(url)
    assert cls.__name__ == "ClusterCoordinator" and BROKER_SCHEMES["tcp"] is cls
    assert cls.distributed and cls.live
    broker = Broker(url, spec=ExperimentSpec(), num_clients=2)
    assert isinstance(broker, cls)
    assert broker.scheme == url.split(":")[0]
    assert broker.live_clients() == []  # nobody joined
    assert broker.describe()["scheme"] == broker.scheme


def test_memory_run_does_not_import_the_control_plane():
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys; from repro.experiment import ExperimentSpec; "
        "from repro.runtime import broker_class; "
        "ExperimentSpec(pool_size=2); broker_class('redis://h:1/0'); "
        "assert not [m for m in sys.modules if m.startswith('repro.cluster')], 'eager'; "
        "broker_class('tcp://h:1'); assert 'repro.cluster.coordinator' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


def test_worker_link_comes_from_the_same_registry():
    link = broker_class("redis://h:1/0").worker_link("redis://h:1/0?run=ns", "w1")
    assert isinstance(link, RedisLink) and link.worker_id == "w1"
    link = broker_class("inproc://x").worker_link("inproc://x", "w2")
    assert type(link).__name__ == "ClusterLink" and link.cfg.address == "x"
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


def test_with_run_pins_the_namespace():
    cfg = parse_redis_url("redis://h:6379/0?workers=2&run=old")
    url = cfg.with_run("fresh")
    assert "run=fresh" in url and "run=old" not in url
    assert "workers=2" in url
    # the rewritten URL parses back to the same endpoint
    again = parse_redis_url(url)
    assert again.run == "fresh" and again.workers == 2
