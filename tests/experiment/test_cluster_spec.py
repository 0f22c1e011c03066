"""Cluster URL validation, live-broker constraints, and YAML roundtrip.

The live control plane is configured by the broker URL alone
(``broker: tcp://host:port?min_nodes=3&hb=0.5&lease=3``): the liveness
parameters validate at spec construction with the bounds the old
``cluster:`` block had, and the rules a live run imposes on the rest of the
spec key on the broker class's ``live`` flag.
"""

import pytest

from repro.cluster.protocol import ClusterUrl, parse_cluster_url
from repro.conf import builtin_store
from repro.config import compose
from repro.experiment import ExperimentSpec, SpecError
from repro.experiment.spec import FaultSpec
from repro.runtime import broker_class

LIVE = "tcp://127.0.0.1:0"

#: ClusterUrl field -> its URL query key
_QUERY_KEY = {"min_nodes": "min_nodes", "join_timeout": "join", "heartbeat": "hb",
              "lease": "lease"}


def cluster_url(transport="tcp", **fields):
    query = "&".join(f"{_QUERY_KEY[k]}={v}" for k, v in fields.items())
    return f"{transport}://127.0.0.1:0" + (f"?{query}" if query else "")


# ------------------------------------------------------------ the URL
def test_cluster_defaults():
    cl = parse_cluster_url(LIVE)
    assert cl.address == "127.0.0.1:0"
    assert cl.kind == "tcp"
    assert cl.min_nodes == 1
    assert cl.lease > cl.heartbeat


@pytest.mark.parametrize("kwargs,match", [
    ({"transport": "carrier-pigeon"}, "transport"),
    ({"min_nodes": 0}, "min_nodes"),
    ({"join_timeout": 0}, "join_timeout"),
    ({"heartbeat": 0}, "heartbeat"),
    ({"heartbeat": 1.0, "lease": 0.5}, "lease"),
])
def test_cluster_spec_validation(kwargs, match):
    url = cluster_url(**kwargs)
    with pytest.raises(ValueError, match=match):
        parse_cluster_url(url)
    if "transport" not in kwargs:
        # ...and a spec naming that URL fails at construction, as a SpecError
        # (an unknown transport is an unknown scheme: the registry's error)
        with pytest.raises(SpecError, match=match):
            ExperimentSpec(broker=url)


def test_failure_detector_keys_are_gone():
    # one liveness rule: a member is dead once silent for longer than the
    # lease, so the detector/phi knobs are unknown keys, not ignored ones
    for key in ("detector=phi", "phi=8"):
        with pytest.raises(ValueError, match=r"unknown parameters \['(detector|phi)'\]"):
            parse_cluster_url(f"{LIVE}?{key}")
        with pytest.raises(SpecError, match="unknown parameters"):
            ExperimentSpec(broker=f"{LIVE}?{key}")


# ------------------------------------------------------------ live-broker rules
def test_live_mode_requires_cluster():
    # mode is gone — a saved `mode: live` points at the broker that implies it
    with pytest.raises(SpecError, match="'mode' was removed.*tcp:// broker"):
        ExperimentSpec.from_dict({"mode": "live"})
    with pytest.raises(SpecError, match="unknown keys"):
        ExperimentSpec.from_dict({"cluster": {"min_nodes": 3}})


def test_live_mode_forbids_scripted_faults():
    with pytest.raises(SpecError, match="scripted fault model"):
        ExperimentSpec(broker=LIVE, faults=FaultSpec(drop_prob=0.2))


def test_live_mode_forbids_pool():
    with pytest.raises(SpecError, match="pool_size"):
        ExperimentSpec(broker=LIVE, pool_size=2)


def test_live_mode_forbids_batch_turns():
    # the knob is gone on every broker: fusion is the broker's own call, so
    # a key arriving from outside the program (saved spec, composed config,
    # +batch_turns= on the CLI) is named and refused rather than ignored
    for broker in (LIVE, "memory://"):
        with pytest.raises(SpecError, match="'batch_turns' was removed.*automatic"):
            ExperimentSpec.from_dict({"broker": broker, "batch_turns": 4})
    with pytest.raises(SpecError, match="'batch_turns' was removed"):
        ExperimentSpec.from_yaml("batch_turns: 4\n")
    from repro.conf import builtin_store
    from repro.config import compose

    cfg = compose(builtin_store(), "experiment", overrides=["+batch_turns=4"])
    with pytest.raises(SpecError, match="config: 'batch_turns' was removed"):
        ExperimentSpec.from_config(cfg)


def test_cluster_under_rounds_mode_rejected():
    with pytest.raises(SpecError, match="'mode' was removed"):
        ExperimentSpec.from_dict({"mode": "rounds", "broker": LIVE})
    # the simulated distributed broker is not bound by the live rules
    assert ExperimentSpec(broker="redis://localhost:6379/0", pool_size=2).pool_size == 2


def test_cluster_mapping_becomes_dataclass():
    spec = ExperimentSpec.from_dict({"broker": "tcp://10.0.0.1:7070?min_nodes=3&lease=5.0"})
    cl = parse_cluster_url(spec.broker)
    assert isinstance(cl, ClusterUrl)
    assert cl.min_nodes == 3
    assert cl.lease == 5.0


# ------------------------------------------------------------ mode resolution
def test_auto_with_cluster_resolves_live():
    # nothing selects it: a live broker runs the scheduler runtime, and
    # "live" is a property of the broker class the URL names
    spec = ExperimentSpec(broker=LIVE)
    assert spec.run_mode() == "async"
    assert broker_class(spec.broker).live
    assert not broker_class("redis://localhost:6379/0").live


def test_auto_without_cluster_unchanged():
    assert ExperimentSpec().run_mode() == "rounds"
    assert ExperimentSpec(scheduler="fedasync").run_mode() == "async"


# ------------------------------------------------------------ serialization
def test_cluster_yaml_roundtrip():
    spec = ExperimentSpec(broker="tcp://0.0.0.0:7070?min_nodes=3&hb=0.25&lease=2")
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
        "broker=tcp://127.0.0.1:7070?min_nodes=3", "scheduler=fedasync",
    ])
    spec = ExperimentSpec.from_config(cfg)
    assert spec.run_mode() == "async"
    cl = parse_cluster_url(spec.broker)
    assert cl.address == "127.0.0.1:7070"
    assert cl.min_nodes == 3
