"""``largest_k``: the one exact top-k selection every sparsifier goes through.

The parent implementation — ``np.argpartition(mags, n - k)[n - k:]`` on the
full vector, every time — is kept here as the reference: the helper may take
a shortcut on zero-heavy input, but the *set* it returns must always be the
one that call returns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import DGC, RedSync, SIDCo, TopK
from repro.compression import base as base_mod
from repro.compression.base import largest_k


def reference_largest_k(mags, k):
    return np.argpartition(mags, mags.size - k)[mags.size - k:]


def reference_topk_roundtrip(vector, k):
    """``TopK(k=k).roundtrip`` as the parent commit computed it."""
    flat = np.asarray(vector, dtype=np.float32).ravel()
    k = max(1, min(int(k), flat.size))
    if k >= flat.size:
        idx = np.arange(flat.size, dtype=np.uint32)
    else:
        idx = reference_largest_k(np.abs(flat), k).astype(np.uint32)
    out = np.zeros(flat.size, dtype=np.float32)
    out[idx.astype(np.int64)] = flat[idx]
    return out


@st.composite
def hostile_vectors(draw):
    """float32 vectors built to break a support-restricted selection: 0-99 %
    exact zeros of either sign, magnitudes drawn from a small pool so blocks
    of equal values straddle the k-th one, all-zero and ``nnz < k`` cases,
    and k at both ends."""
    n = draw(st.integers(2, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    zero_fraction = draw(st.sampled_from([0.0, 0.3, 0.5, 0.6, 0.8, 0.9, 0.99, 1.0]))
    pool_size = draw(st.sampled_from([1, 2, 5, n, 4 * n]))
    rng = np.random.default_rng(seed)
    pool = np.abs(rng.standard_normal(pool_size)).astype(np.float32) + np.float32(1e-3)
    v = pool[rng.integers(0, pool_size, size=n)]
    v = v * rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=n)
    zeros = rng.random(n) < zero_fraction
    v[zeros] = rng.choice(np.array([-0.0, 0.0], dtype=np.float32), size=int(zeros.sum()))
    k = draw(st.one_of(st.sampled_from([1, n - 1, n]), st.integers(1, n)))
    return v, k


@settings(max_examples=400, deadline=None)
@given(hostile_vectors())
def test_same_index_set_as_full_argpartition(case):
    v, k = case
    mags = np.abs(v)
    got = largest_k(mags, k)
    assert got.size == k and len(set(got.tolist())) == k
    assert set(got.tolist()) == set(reference_largest_k(mags, k).tolist())


@settings(max_examples=400, deadline=None)
@given(hostile_vectors())
def test_topk_roundtrip_is_bytes_equal_to_parent(case):
    v, k = case
    comp = TopK(k=k)
    payload = comp.compress(v)
    assert payload.arrays["indices"].dtype == np.uint32
    assert payload.meta == {"n": v.size, "k": min(k, v.size)}
    assert comp.decompress(payload).tobytes() == reference_topk_roundtrip(v, k).tobytes()


def _sparse_distinct(n=4000, nnz=800, seed=0):
    rng = np.random.default_rng(seed)
    v = np.zeros(n, dtype=np.float32)
    v[rng.choice(n, size=nnz, replace=False)] = rng.permutation(nnz).astype(np.float32) + 1.0
    return v * rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=n)


def _partitioned_sizes(monkeypatch):
    sizes = []
    real = np.argpartition

    def spy(a, kth, *args, **kwargs):
        sizes.append(np.asarray(a).size)
        return real(a, kth, *args, **kwargs)

    monkeypatch.setattr(base_mod.np, "argpartition", spy)
    return sizes


def test_zero_heavy_input_partitions_only_the_support(monkeypatch):
    v = _sparse_distinct()
    sizes = _partitioned_sizes(monkeypatch)
    idx = largest_k(np.abs(v), 100)
    assert sizes == [800]  # the support, and no second call
    assert set(idx.tolist()) == set(np.flatnonzero(np.abs(v) > 700).tolist())


@pytest.mark.parametrize("case", ["dense", "ties_at_threshold", "nnz_not_above_k", "nan"])
def test_everything_else_runs_the_plain_call(monkeypatch, case):
    v = np.abs(_sparse_distinct())
    k = 100
    if case == "dense":
        v[v == 0] = 0.5  # no zeros at all
    elif case == "ties_at_threshold":
        v[v > 0] = np.minimum(v[v > 0], 650.0)  # 151 entries share the largest value
    elif case == "nnz_not_above_k":
        k = 800
    elif case == "nan":
        v[np.flatnonzero(v)[0]] = np.nan
    expected = reference_largest_k(v, k)
    sizes = _partitioned_sizes(monkeypatch)
    got = largest_k(v, k)
    assert sizes[-1] == v.size  # the answer came from the full-vector call
    assert np.array_equal(got, expected)  # same call, so even the order agrees


@pytest.mark.parametrize("build", [
    lambda: TopK(ratio=10),
    lambda: SIDCo(ratio=10),
    lambda: SIDCo(ratio=50, stages=1),
    lambda: DGC(ratio=10, seed=3),
    lambda: RedSync(ratio=10, tolerance=0.0, max_iters=1),
], ids=["topk", "sidco", "sidco_1stage", "dgc", "redsync"])
@pytest.mark.parametrize("zero_fraction", [0.0, 0.79, 0.97])
@pytest.mark.parametrize("tail", ["heavy", "flat"])
def test_every_sparsifier_ships_the_parents_payload(monkeypatch, build, zero_fraction, tail):
    """The four compressors that select through the helper send the same
    (index, value) set as with the plain call in its place.  Between them the
    cases reach every call site: SIDCo's full-vector fallback and its trim,
    DGC's re-selection (sample threshold 0 on sparse input) and RedSync's
    final trim (on a flat distribution a one-step search stops far above k)."""
    rng = np.random.default_rng(5)
    v = rng.laplace(size=6000) ** 3 if tail == "heavy" else rng.uniform(-1.0, 1.0, size=6000)
    v = v.astype(np.float32)
    v[rng.random(v.size) < zero_fraction] = 0.0

    def payload_pairs(comp):
        p = comp.compress(v)
        pairs = sorted(zip(p.arrays["indices"].tolist(), p.arrays["values"].tolist()))
        return pairs, p.meta

    ours = payload_pairs(build())
    for mod in ("topk", "sidco", "dgc", "redsync"):
        monkeypatch.setattr(f"repro.compression.{mod}.largest_k", reference_largest_k)
    assert payload_pairs(build()) == ours
