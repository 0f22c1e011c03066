"""Property test: ExperimentSpec -> to_yaml -> from_yaml is the identity.

Hypothesis generates specs over the serializable component shapes (registry
names and ``_target_`` mappings, arbitrary YAML-safe kwargs trees) and
asserts the roundtrip through the framework's own YAML dumper is lossless.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment import (
    DataSpec,
    ExperimentSpec,
    FaultSpec,
    PluginSpec,
    SchedulerSpec,
    TrainSpec,
)

# YAML-safe scalar leaves.  NaN is excluded (NaN != NaN breaks equality);
# strings stay printable so the dumper's escaping stays in its proven range.
_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=12,
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    _text,
)
_keys = st.text(
    alphabet=st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
    min_size=1,
    max_size=8,
)
_kwargs = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_keys, children, max_size=3),
    ),
    max_leaves=8,
)
_kwargs_dict = st.dictionaries(_keys, _kwargs, max_size=3)

_component = st.one_of(
    st.sampled_from(["fedavg", "mlp", "centralized", "blobs", "topk"]),
    st.fixed_dictionaries({"_target_": _text.filter(bool)}, optional={"knob": _scalars}),
)

_data_specs = st.builds(
    DataSpec,
    dataset=_component,
    kwargs=_kwargs_dict,
    partition=st.sampled_from(["iid", "dirichlet", "label_skew"]),
    partition_alpha=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    batch_size=st.integers(min_value=1, max_value=512),
    feature_noniid=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
_train_specs = st.builds(
    TrainSpec,
    algorithm=_component,
    algorithm_kwargs=_kwargs_dict,
    model=_component,
    model_kwargs=_kwargs_dict,
    global_rounds=st.integers(min_value=1, max_value=100),
    eval_every=st.integers(min_value=0, max_value=10),
    eval_max_batches=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
)
_plugin_specs = st.builds(
    PluginSpec,
    compressor=st.one_of(st.none(), _component),
    compressor_kwargs=_kwargs_dict,
    outer_compressor=st.one_of(st.none(), _component),
    dp=st.one_of(st.none(), _kwargs_dict),
)
_fault_specs = st.builds(
    FaultSpec,
    client_fraction=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    drop_prob=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    straggler_prob=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    straggler_delay=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    selection=st.sampled_from(["random", "round_robin", "power_of_choice"]),
    selection_kwargs=_kwargs_dict,
)
_scheduler_specs = st.one_of(
    st.none(),
    st.builds(
        SchedulerSpec,
        name=st.sampled_from(["sync", "semi_sync", "fedasync", "fedbuff",
                              "hier_async", "gossip_async"]),
        kwargs=_kwargs_dict,
    ),
)
_specs = st.builds(
    ExperimentSpec,
    topology=_component,
    topology_kwargs=_kwargs_dict,
    data=_data_specs,
    train=_train_specs,
    plugins=_plugin_specs,
    faults=_fault_specs,
    scheduler=_scheduler_specs,
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    total_updates=st.one_of(st.none(), st.integers(min_value=1, max_value=10 ** 6)),
)


@settings(max_examples=150, deadline=None)
@given(spec=_specs)
def test_yaml_roundtrip_is_identity(spec):
    restored = ExperimentSpec.from_yaml(spec.to_yaml())
    assert restored == spec
    # fingerprints agree too (the canonical dump is deterministic)
    assert restored.fingerprint() == spec.fingerprint()


@settings(max_examples=60, deadline=None)
@given(spec=_specs)
def test_dict_roundtrip_is_identity(spec):
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=60, deadline=None)
@given(spec=_specs)
def test_dump_has_no_float_drift(spec):
    """Two dump/parse cycles agree exactly (floats don't walk)."""
    once = ExperimentSpec.from_yaml(spec.to_yaml())
    twice = ExperimentSpec.from_yaml(once.to_yaml())
    for a, b in zip(_floats_of(once), _floats_of(twice)):
        assert a == b or (math.isnan(a) and math.isnan(b))


def _floats_of(spec):
    yield spec.data.partition_alpha
    yield spec.data.feature_noniid
    yield spec.faults.client_fraction
    yield spec.faults.straggler_delay
