import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import yaml as y


# ---------------------------------------------------------------- scalars
@pytest.mark.parametrize(
    "text,expected",
    [
        ("42", 42),
        ("-7", -7),
        ("3.14", 3.14),
        ("1e-4", 1e-4),
        (".5", 0.5),
        ("true", True),
        ("False", False),
        ("null", None),
        ("~", None),
        ("hello", "hello"),
        ("'quoted string'", "quoted string"),
        ('"with: colon"', "with: colon"),
        ("'it''s'", "it's"),
    ],
)
def test_parse_scalar(text, expected):
    assert y.parse_scalar(text) == expected


def test_parse_inf_nan():
    assert y.parse_scalar(".inf") == math.inf
    assert y.parse_scalar("-.inf") == -math.inf
    assert math.isnan(y.parse_scalar(".nan"))


# ---------------------------------------------------------------- documents
def test_block_mapping_and_nesting():
    cfg = y.loads("a:\n  b: 1\n  c:\n    d: x\n")
    assert cfg == {"a": {"b": 1, "c": {"d": "x"}}}


def test_block_sequence():
    assert y.loads("- 1\n- two\n- 3.0\n") == [1, "two", 3.0]


def test_sequence_of_mappings():
    cfg = y.loads("items:\n  - name: a\n    value: 1\n  - name: b\n    value: 2\n")
    assert cfg["items"] == [{"name": "a", "value": 1}, {"name": "b", "value": 2}]


def test_flow_collections():
    cfg = y.loads("a: [1, 2, [3, 4]]\nb: {x: 1, y: {z: 2}}\n")
    assert cfg == {"a": [1, 2, [3, 4]], "b": {"x": 1, "y": {"z": 2}}}


def test_comments_and_blank_lines():
    cfg = y.loads("# header\n\na: 1  # trailing\n# footer\nb: 2\n")
    assert cfg == {"a": 1, "b": 2}


def test_hash_inside_quotes_is_not_comment():
    assert y.loads("a: 'x # y'\n") == {"a": "x # y"}
    # an escaped quote does not close the string (found by the spec
    # roundtrip property test)
    for text in ('" #', '"0 #'):
        assert y.loads(y.dumps({"a": text})) == {"a": text}


def test_empty_document():
    assert y.loads("") is None
    assert y.loads("# only comments\n") is None


def test_defaults_list_hydra_style():
    cfg = y.loads("defaults:\n  - topology: centralized\n  - override algorithm: fedprox\n  - _self_\n")
    assert cfg["defaults"] == [
        {"topology": "centralized"},
        {"override algorithm": "fedprox"},
        "_self_",
    ]


def test_sequence_at_parent_indent():
    cfg = y.loads("milestones:\n- 100\n- 150\n")
    assert cfg == {"milestones": [100, 150]}


def test_null_value_for_key_without_content():
    assert y.loads("a:\nb: 1\n") == {"a": None, "b": 1}


# ---------------------------------------------------------------- errors
def test_tabs_rejected():
    with pytest.raises(y.YamlError, match="tab"):
        y.loads("a:\n\tb: 1\n")


def test_duplicate_keys_rejected():
    with pytest.raises(y.YamlError, match="duplicate"):
        y.loads("a: 1\na: 2\n")


def test_error_carries_line_number():
    with pytest.raises(y.YamlError) as err:
        y.loads("a: 1\nnot a mapping line\n")
    assert err.value.line == 2


def test_malformed_flow():
    with pytest.raises(y.YamlError):
        y.loads("a: [1, 2\n")


# ---------------------------------------------------------------- round trips
_scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.characters(codec="ascii", exclude_characters="\x00\r"), max_size=12),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(alphabet="abcdefg_", min_size=1, max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(alphabet="abcdefg_", min_size=1, max_size=6), _values, max_size=5))
def test_dump_load_roundtrip(doc):
    assert y.loads(y.dumps(doc)) == doc


def test_trailing_newline_string_roundtrips():
    """Regression: '$' in the plain-scalar regex matched before a trailing
    newline, so values like 'A\\n' dumped unquoted and lost the newline."""
    for doc in ({"k": "A\n"}, {"k": "A\r"}, {"k": "A\n", "m": ["b\n"]}):
        assert y.loads(y.dumps(doc)) == doc
