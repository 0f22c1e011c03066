"""``tcp://`` broker URLs in a spec: validation, run mode and YAML roundtrip.

A ``tcp://host:port`` broker is the redis turn loop served by the engine
itself (:class:`~repro.runtime.redis.TcpBroker`), so its URL takes the redis
keys ``workers``, ``lease``, ``claim``, ``hb`` and ``requeues``, validated
at spec construction by the same parser.  It takes nothing else, not even
``run``: the endpoint serves one run.
"""

import pytest

from repro.conf import builtin_store
from repro.config import compose
from repro.experiment import ExperimentSpec, SpecError
from repro.experiment.spec import FaultSpec
from repro.runtime import Broker, broker_class

LIVE = "tcp://127.0.0.1:0"


# ------------------------------------------------------------ the URL
def test_tcp_url_takes_the_redis_keys():
    spec = ExperimentSpec.from_dict(
        {"broker": "tcp://:pw@10.0.0.1:7070?workers=2&lease=5&claim=3&hb=0.5&requeues=1"})
    cfg = Broker(spec.broker, spec=spec, num_clients=2).cfg
    assert (cfg.host, cfg.port, cfg.workers, cfg.password) == ("10.0.0.1", 7070, 2, "pw")
    assert (cfg.lease, cfg.claim, cfg.heartbeat, cfg.max_requeues) == (5.0, 3.0, 0.5, 1)


def test_tcp_url_defaults_are_the_redis_ones():
    cfg = Broker(LIVE, spec=ExperimentSpec(), num_clients=2).cfg
    assert (cfg.host, cfg.port, cfg.db, cfg.workers) == ("127.0.0.1", 0, 0, 0)
    assert (cfg.lease, cfg.claim, cfg.heartbeat, cfg.max_requeues) == (30.0, 10.0, 1.0, 2)
    assert cfg.run == "tcp"  # the one run the endpoint serves
    assert cfg.password is None  # loopback: none needed


@pytest.mark.parametrize("query", ["workers=two", "lease=soon", "requeues=1.5"])
def test_tcp_url_values_are_parsed_at_spec_construction(query):
    with pytest.raises(SpecError, match="invalid literal|could not convert"):
        ExperimentSpec(broker=f"{LIVE}?{query}")


@pytest.mark.parametrize("query,match", [
    ("lease=0", "must be positive"),
    ("claim=-1", "must be positive"),
    ("hb=0", "must be positive"),
    ("hb=1&lease=0.5", "lease must exceed hb"),
])
def test_tcp_url_timing_is_validated_at_spec_construction(query, match):
    with pytest.raises(SpecError, match=match):
        ExperimentSpec(broker=f"{LIVE}?{query}")


@pytest.mark.parametrize("key", ["min_nodes=3", "join=60", "detector=phi", "phi=8", "run=ns"])
def test_keys_beyond_the_redis_ones_are_unknown(key):
    # only the redis keys, and one endpoint serves one run
    with pytest.raises(SpecError, match=r"unknown parameters \['(min_nodes|join|detector|phi|run)'\]"):
        ExperimentSpec(broker=f"{LIVE}?{key}")


# ------------------------------------------------------------ what a spec may combine
def test_live_mode_requires_cluster():
    # mode is gone — a saved `mode: live` points at the broker that implies it
    with pytest.raises(SpecError, match="'mode' was removed.*tcp:// broker"):
        ExperimentSpec.from_dict({"mode": "live"})
    with pytest.raises(SpecError, match="unknown keys"):
        ExperimentSpec.from_dict({"cluster": {"min_nodes": 3}})


def test_tcp_takes_scripted_faults_and_a_sized_pool():
    # virtual time on every substrate: a tcp:// run scripts faults and sizes
    # its worker fleet exactly as a redis:// run does
    spec = ExperimentSpec(broker=LIVE, faults=FaultSpec(drop_prob=0.2), pool_size=2)
    assert spec.faults.drop_prob == 0.2 and spec.pool_size == 2


def test_live_mode_forbids_batch_turns():
    # the knob is gone on every broker: fusion is the broker's own call, so
    # a key arriving from outside the program (saved spec, composed config,
    # +batch_turns= on the CLI) is named and refused rather than ignored
    for broker in (LIVE, "memory://"):
        with pytest.raises(SpecError, match="'batch_turns' was removed.*automatic"):
            ExperimentSpec.from_dict({"broker": broker, "batch_turns": 4})
    with pytest.raises(SpecError, match="'batch_turns' was removed"):
        ExperimentSpec.from_yaml("batch_turns: 4\n")
    cfg = compose(builtin_store(), "experiment", overrides=["+batch_turns=4"])
    with pytest.raises(SpecError, match="config: 'batch_turns' was removed"):
        ExperimentSpec.from_config(cfg)


def test_cluster_under_rounds_mode_rejected():
    with pytest.raises(SpecError, match="'mode' was removed"):
        ExperimentSpec.from_dict({"mode": "rounds", "broker": LIVE})


# ------------------------------------------------------------ mode resolution
def test_auto_with_cluster_resolves_live():
    # nothing selects it: a distributed broker runs the scheduler runtime
    spec = ExperimentSpec(broker=LIVE)
    assert spec.run_mode() == "async"
    assert broker_class(spec.broker).distributed


def test_auto_without_cluster_unchanged():
    assert ExperimentSpec().run_mode() == "rounds"
    assert ExperimentSpec(scheduler="fedasync").run_mode() == "async"


# ------------------------------------------------------------ serialization
def test_cluster_yaml_roundtrip():
    spec = ExperimentSpec(broker="tcp://:pw@0.0.0.0:7070?workers=3&hb=0.25&lease=2")
    clone = ExperimentSpec.from_yaml(spec.to_yaml())
    assert clone.broker == spec.broker
    assert clone == spec
    assert clone.run_mode() == "async"
    assert clone.fingerprint() == spec.fingerprint()


def test_cluster_absent_roundtrip():
    spec = ExperimentSpec()
    assert "cluster" not in spec.to_dict()
    clone = ExperimentSpec.from_yaml(spec.to_yaml())
    assert clone.broker == "memory://"


def test_cluster_changes_fingerprint():
    base = ExperimentSpec()
    live = ExperimentSpec(broker=LIVE)
    assert base.fingerprint() != live.fingerprint()
    # liveness parameters are part of the run's identity
    assert live.fingerprint() != ExperimentSpec(broker=LIVE + "?lease=9").fingerprint()


# ------------------------------------------------------------ config compose
def test_compose_live_overrides():
    cfg = compose(builtin_store(), "experiment", overrides=[
        "broker=tcp://127.0.0.1:7070?workers=3", "scheduler=fedasync",
    ])
    spec = ExperimentSpec.from_config(cfg)
    assert spec.run_mode() == "async"
    cfg = Broker(spec.broker, spec=spec, num_clients=2).cfg
    assert (cfg.host, cfg.port, cfg.workers) == ("127.0.0.1", 7070, 3)
