"""Property-based verification of the robust aggregation rules.

Hypothesis drives randomized state dicts through every rule and pins the
algebraic contracts the adversarial-robustness suite relies on:

* permutation invariance — client order never matters;
* breakdown point — median / trimmed-mean outputs stay inside the honest
  envelope while at most ``f`` of ``n`` inputs are corrupted;
* Krum's selection guarantee — with ``f < (n - 2) / 2`` outliers, the
  winner is an honest input;
* norm clipping — the aggregate never moves farther than ``clip_norm``
  from the base state;
* mean reduction — on honest-only input the rules that claim weighted-mean
  semantics (norm-clip inside the ball, take-all multi-Krum) match the
  weighted mean to fp tolerance, the trimmed mean is the stacked (sorted,
  sliced) float64 mean bit for bit, and every rule is a fixed point on
  unanimous input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robust.aggregators import (
    ROBUST_AGGREGATORS,
    Krum,
    Median,
    NormClip,
    TrimmedMean,
    build_robust_aggregator,
)

ALL_NAMES = sorted(ROBUST_AGGREGATORS)


def make_states(rng: np.random.Generator, n: int, dim: int, spread: float = 1.0):
    """n state dicts with a float matrix, a float vector, and an int buffer."""
    return [
        {
            "w": (spread * rng.standard_normal((dim, 2))).astype(np.float64),
            "b": (spread * rng.standard_normal(dim)).astype(np.float64),
            "steps": np.array(7, dtype=np.int64),
        }
        for _ in range(n)
    ]


def flat(state):
    return np.concatenate(
        [np.asarray(state[k], dtype=np.float64).ravel() for k in ("w", "b")]
    )


@st.composite
def aggregation_case(draw, min_n=3, max_n=9):
    n = draw(st.integers(min_n, max_n))
    dim = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = draw(
        st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)
    )
    return n, dim, seed, weights


@settings(max_examples=25, deadline=None)
@given(case=aggregation_case(), name=st.sampled_from(["median", "trimmed_mean", "norm_clip"]))
def test_permutation_invariance(case, name):
    """Client order never matters for the coordinate-wise rules.

    (Krum breaks ties by input index — its invariance is stated on the
    score multiset below, which is what its selection guarantee rests on.)
    """
    n, dim, seed, weights = case
    rng = np.random.default_rng(seed)
    states = make_states(rng, n, dim)
    perm = rng.permutation(n)
    out = build_robust_aggregator(name).combine(states, weights)
    out_perm = build_robust_aggregator(name).combine(
        [states[i] for i in perm], [weights[i] for i in perm]
    )
    for key in ("w", "b"):
        np.testing.assert_allclose(out[key], out_perm[key], rtol=1e-9, atol=1e-12)
    assert out["steps"] == out_perm["steps"] == 7


@settings(max_examples=25, deadline=None)
@given(case=aggregation_case())
def test_krum_scores_are_permutation_equivariant(case):
    """Permuting the inputs permutes Krum's scores the same way, and the
    single-Krum output is always one of the minimal-score candidates (ties
    between mutual nearest neighbors are broken by input index, so exact
    output invariance is deliberately NOT claimed)."""
    n, dim, seed, _ = case
    rng = np.random.default_rng(seed)
    states = make_states(rng, n, dim)
    perm = rng.permutation(n)
    agg = Krum()
    scores = agg.scores(states, ["w", "b"])
    scores_perm = agg.scores([states[i] for i in perm], ["w", "b"])
    np.testing.assert_allclose(scores_perm, scores[perm], rtol=1e-9, atol=1e-12)
    out = flat(agg.combine(states, [1.0] * n))
    best = np.min(scores)
    minimal = [flat(states[i]) for i in range(n) if scores[i] <= best + 1e-12]
    assert any(np.allclose(out, m, rtol=1e-12, atol=1e-12) for m in minimal)


@settings(max_examples=25, deadline=None)
@given(case=aggregation_case(min_n=3), corrupt_sign=st.sampled_from([-1.0, 1.0]))
def test_median_breakdown_point(case, corrupt_sign):
    """With fewer than half the inputs corrupted, every output coordinate
    stays inside the honest min/max envelope."""
    n, dim, seed, weights = case
    rng = np.random.default_rng(seed)
    states = make_states(rng, n, dim)
    f = (n - 1) // 2
    for i in range(f):
        for key in ("w", "b"):
            states[i][key] = states[i][key] + corrupt_sign * 1e6
    honest = np.stack([flat(s) for s in states[f:]])
    out = flat(Median().combine(states, weights))
    assert np.all(out >= honest.min(axis=0) - 1e-9)
    assert np.all(out <= honest.max(axis=0) + 1e-9)


@settings(max_examples=25, deadline=None)
@given(case=aggregation_case(min_n=4), corrupt_sign=st.sampled_from([-1.0, 1.0]))
def test_trimmed_mean_breakdown_point(case, corrupt_sign):
    """Corrupting at most ``trim_ratio * n`` inputs cannot push any output
    coordinate outside the honest envelope."""
    n, dim, seed, weights = case
    rng = np.random.default_rng(seed)
    agg = TrimmedMean(trim_ratio=0.3)
    k = int(0.3 * n)
    if k == 0:
        return  # nothing is trimmed at this n; the property is vacuous
    states = make_states(rng, n, dim)
    for i in range(k):
        for key in ("w", "b"):
            states[i][key] = states[i][key] + corrupt_sign * 1e6
    honest = np.stack([flat(s) for s in states[k:]])
    out = flat(agg.combine(states, weights))
    assert np.all(out >= honest.min(axis=0) - 1e-9)
    assert np.all(out <= honest.max(axis=0) + 1e-9)
    assert agg.counters["rejected"] == 2 * k


@settings(max_examples=25, deadline=None)
@given(
    f=st.integers(1, 3),
    extra=st.integers(0, 3),
    dim=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_krum_selects_an_honest_input(f, extra, dim, seed):
    """With f < (n - 2) / 2 far-away outliers, Krum's pick is honest."""
    n = 2 * f + 3 + extra  # guarantees f < (n - 2) / 2
    rng = np.random.default_rng(seed)
    states = make_states(rng, n, dim, spread=0.5)
    for i in range(f):
        for key in ("w", "b"):
            states[i][key] = states[i][key] + 1e3
    out = flat(Krum(f=f).combine(states, [1.0] * n))
    honest = [flat(s) for s in states[f:]]
    assert any(np.allclose(out, h, rtol=1e-12, atol=1e-12) for h in honest)


@settings(max_examples=25, deadline=None)
@given(case=aggregation_case(), clip=st.floats(0.1, 5.0))
def test_norm_clip_never_leaves_the_ball(case, clip):
    n, dim, seed, weights = case
    rng = np.random.default_rng(seed)
    states = make_states(rng, n, dim, spread=10.0)
    base = make_states(rng, 1, dim)[0]
    agg = NormClip(clip_norm=clip)
    out = agg.combine(states, weights, base=base)
    moved = flat(out) - flat(base)
    assert np.linalg.norm(moved) <= clip + 1e-6


@settings(max_examples=25, deadline=None)
@given(case=aggregation_case(), name=st.sampled_from(ALL_NAMES))
def test_unanimous_input_is_a_fixed_point(case, name):
    """Every rule maps n copies of one state back to that state."""
    n, dim, seed, weights = case
    rng = np.random.default_rng(seed)
    state = make_states(rng, 1, dim)[0]
    states = [{k: np.copy(v) for k, v in state.items()} for _ in range(n)]
    out = build_robust_aggregator(name).combine(states, weights, base=state)
    for key in ("w", "b"):
        np.testing.assert_allclose(out[key], state[key], rtol=1e-9, atol=1e-12)
    assert out["steps"] == state["steps"]


@settings(max_examples=25, deadline=None)
@given(case=aggregation_case())
def test_honest_rules_reduce_to_weighted_mean(case):
    """The rules that claim mean semantics on benign input deliver them:
    norm-clip with everything inside the ball, multi-Krum taking every
    candidate, and zero-trim trimmed mean (uniform weights)."""
    n, dim, seed, weights = case
    rng = np.random.default_rng(seed)
    states = make_states(rng, n, dim)
    w = np.asarray(weights) / np.sum(weights)
    mean = {
        key: sum(w[i] * np.asarray(states[i][key], dtype=np.float64) for i in range(n))
        for key in ("w", "b")
    }
    base = {k: np.zeros_like(v) for k, v in states[0].items() if k != "steps"}
    clipped = NormClip(clip_norm=1e9).combine(states, weights, base=base)
    take_all = Krum(f=0, multi=n).combine(states, weights)
    uniform_mean = {
        key: np.mean(
            np.stack([np.asarray(s[key], dtype=np.float64) for s in states]), axis=0
        )
        for key in ("w", "b")
    }
    zero_trim = TrimmedMean(trim_ratio=0.0).combine(states, weights)
    for key in ("w", "b"):
        np.testing.assert_allclose(clipped[key], mean[key], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(take_all[key], mean[key], rtol=1e-9, atol=1e-12)
        assert_same_bits(zero_trim[key], uniform_mean[key])


def assert_same_bits(out, ref):
    np.testing.assert_array_equal(out, ref)
    assert np.asarray(out).dtype == np.asarray(ref).dtype
    assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()  # also tells -0.0 from 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "n, trim_ratio",
    # k = 0: ratio 0 at any n, and 0.2 at n <= 4 (four clients, as the
    # benchmark's resnet18 federation merges); n = 5 at 0.2 trims one per tail
    [(1, 0.2), (2, 0.2), (3, 0.2), (4, 0.2), (4, 0.0), (9, 0.0), (5, 0.2)],
)
@settings(max_examples=10, deadline=None)
@given(dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), with_base=st.booleans())
def test_trimmed_mean_is_the_stacked_mean_bit_for_bit(dtype, n, trim_ratio, dim, seed, with_base):
    """Whether it trims or not, the rule returns exactly what sorting (when
    k > 0) and averaging a float64 stack of the states gives, cast back —
    including signed zeros and mixed magnitudes, where another summation
    order would show in the last bits."""
    rng = np.random.default_rng(seed)
    states = make_states(rng, n, dim)
    for i, state in enumerate(states):
        for key in ("w", "b"):
            v = state[key] * 10.0 ** rng.integers(-6, 7, size=state[key].shape)
            v[rng.random(v.shape) < 0.2] = -0.0
            if key == "w":  # ("b" at dim 1 is the lone coordinate numpy sums pairwise)
                v.flat[0] = -0.0  # one coordinate that is -0.0 in every state
            state[key] = v.astype(dtype)
        state["steps"] = np.array(i + 1, dtype=np.int64)
    base = make_states(rng, 1, dim)[0] if with_base else None
    if base is not None:
        base["steps"] = np.array(99, dtype=np.int64)
    k = int(trim_ratio * n)
    out = TrimmedMean(trim_ratio=trim_ratio).combine(states, [1.0] * n, base=base)
    for key in ("w", "b"):
        stack = np.stack([np.asarray(s[key], dtype=np.float64) for s in states])
        if k:
            stack = np.sort(stack, axis=0)[k: n - k]
        assert_same_bits(out[key], stack.mean(axis=0).astype(dtype))
    assert out["steps"] == (99 if with_base else 1)  # from base, else the first candidate


# ----------------------------------------------------------------------------
# plain edge cases (no hypothesis needed)
# ----------------------------------------------------------------------------
def test_integer_buffers_come_from_base_when_given():
    states = [
        {"w": np.array([float(i)]), "steps": np.array(i, dtype=np.int64)}
        for i in range(1, 4)
    ]
    base = {"w": np.array([0.0]), "steps": np.array(99, dtype=np.int64)}
    out = Median().combine(states, [1.0] * 3, base=base)
    assert out["steps"] == 99
    out = Median().combine(states, [1.0] * 3)
    assert out["steps"] == 1  # no base: carried from the first candidate


def test_mix_anchors_on_own_state():
    own = {"w": np.array([1.0]), "steps": np.array(5, dtype=np.int64)}
    other = {"w": np.array([100.0]), "steps": np.array(9, dtype=np.int64)}
    out = Median().mix(own, 0.5, [(other, 0.5)])
    assert out["steps"] == 5  # integer buffers stay local to the peer
    assert 1.0 <= float(out["w"][0]) <= 100.0


def test_weight_length_mismatch_raises():
    states = [{"w": np.array([1.0])}, {"w": np.array([2.0])}]
    with pytest.raises(ValueError, match="2 states"):
        NormClip().combine(states, [1.0])


def test_empty_states_raise():
    with pytest.raises(ValueError, match="no states"):
        Median().combine([], [])


def test_unknown_aggregator_name_raises():
    with pytest.raises(ValueError, match="unknown robust aggregator"):
        build_robust_aggregator("does_not_exist")


def test_multi_krum_defaults_to_three():
    agg = build_robust_aggregator("multi_krum")
    assert isinstance(agg, Krum) and agg.multi == 3 and agg.name == "multi_krum"


def test_invalid_parameters_raise():
    with pytest.raises(ValueError, match="trim_ratio"):
        TrimmedMean(trim_ratio=0.5)
    with pytest.raises(ValueError, match="clip_norm"):
        NormClip(clip_norm=0.0)
    with pytest.raises(ValueError, match="multi"):
        Krum(multi=0)
    with pytest.raises(ValueError, match="f must be"):
        Krum(f=-1)
