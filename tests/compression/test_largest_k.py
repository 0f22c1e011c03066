"""``largest_k``: the one exact top-k selection every sparsifier goes through.

Its rule is a stable sort: magnitude descending, NaN above every number,
index ascending among equals — the first ``k`` of that order, returned in
ascending index order.  Two references check it.  ``stable_largest_k`` is
that sort, written out.  ``np.argpartition(mags, n - k)[n - k:]`` on the full
vector — what every sparsifier once called — must give the same *set*
whenever no tie sits at the k-th magnitude, which is what keeps records
unchanged on tie-free input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import DGC, RedSync, SIDCo, TopK
from repro.compression.base import kth_largest, largest_k


def reference_largest_k(mags, k):
    return np.argpartition(mags, mags.size - k)[mags.size - k:]


def _rank(m):
    """Sort key of one magnitude: NaN first, then larger first."""
    return (0, 0.0) if m != m else (1, -float(m))


def stable_largest_k(mags, k):
    """The rule, written out: the first ``k`` of a stable sort by ``_rank``."""
    order = sorted(range(mags.size), key=lambda i: _rank(mags[i]))
    return np.array(sorted(order[:k]), dtype=np.int64)


def tie_free(mags, k):
    """No entry outside the top ``k`` ranks equal to the k-th one."""
    ranks = sorted(_rank(m) for m in mags)
    return k == mags.size or ranks[k - 1] != ranks[k]


def oracle_largest_k(mags, k):
    """``np.argpartition``'s set where it is unique, the stable rule where
    ties at the k-th magnitude leave it a choice."""
    return reference_largest_k(mags, k) if tie_free(mags, k) else stable_largest_k(mags, k)


def reference_topk_roundtrip(vector, k):
    """``TopK(k=k).roundtrip`` as the parent commit computed it, with the
    stable rule choosing among entries tied at the k-th magnitude."""
    flat = np.asarray(vector, dtype=np.float32).ravel()
    k = max(1, min(int(k), flat.size))
    if k >= flat.size:
        idx = np.arange(flat.size, dtype=np.uint32)
    else:
        idx = oracle_largest_k(np.abs(flat), k).astype(np.uint32)
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
    assert set(got.tolist()) == set(oracle_largest_k(mags, k).tolist())


@st.composite
def hostile_vectors_with_nan(draw):
    """``hostile_vectors`` with up to ``n`` entries turned NaN (of either
    sign: the selection sees ``|x|``), so NaN blocks land below, across and
    above the k-th rank."""
    v, k = draw(hostile_vectors())
    nans = draw(st.integers(0, v.size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v[rng.choice(v.size, size=nans, replace=False)] = rng.choice(
        np.array([-np.nan, np.nan], dtype=np.float32), size=nans)
    return v, k


@settings(max_examples=400, deadline=None)
@given(st.one_of(hostile_vectors(), hostile_vectors_with_nan()))
def test_matches_the_stable_sort_oracle(case):
    v, k = case
    mags = np.abs(v)
    got = largest_k(mags, k)
    assert got.dtype.kind == "i" and np.all(np.diff(got) > 0)  # strictly increasing
    assert np.array_equal(got, stable_largest_k(mags, k))
    if tie_free(mags, k):
        assert set(got.tolist()) == set(reference_largest_k(mags, k).tolist())


@settings(max_examples=200, deadline=None)
@given(st.one_of(hostile_vectors(), hostile_vectors_with_nan()))
def test_kth_largest_is_the_partition_value(case):
    v, k = case
    mags = np.abs(v)
    want = np.partition(mags, mags.size - k)[mags.size - k]
    got = kth_largest(mags, k)
    assert got.dtype == mags.dtype
    assert got == want or (np.isnan(got) and np.isnan(want))


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


def _partitioned(monkeypatch):
    """Every vector numpy is asked to (arg)partition, as it was passed."""
    seen = []
    for name in ("partition", "argpartition"):
        real = getattr(np, name)

        def spy(a, kth, *args, _real=real, **kwargs):
            seen.append(np.asarray(a))
            return _real(a, kth, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return seen


def test_zero_heavy_input_partitions_only_the_support(monkeypatch):
    v = _sparse_distinct()
    seen = _partitioned(monkeypatch)
    idx = largest_k(np.abs(v), 100)
    assert [a.size for a in seen] == [800]  # the support, and no second call
    assert set(idx.tolist()) == set(np.flatnonzero(np.abs(v) > 700).tolist())


@pytest.mark.parametrize("case", ["dense", "ties_at_threshold", "nnz_not_above_k", "nan"])
def test_what_each_case_partitions(monkeypatch, case):
    """Only dense input partitions the whole vector; a zero-heavy one
    partitions its support whatever ties or NaNs it holds, and ``nnz <= k``
    is answered without a partition."""
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
    expected = oracle_largest_k(v, k)
    seen = _partitioned(monkeypatch)
    got = largest_k(v, k)
    assert [a.size for a in seen] == {"dense": [4000], "nnz_not_above_k": []}.get(case, [800])
    assert np.array_equal(got, np.sort(expected))


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
    (index, value) set as with the plain call in its place — or, where ties
    at the k-th magnitude leave that call a choice, the stable rule's set.  Between them the
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
        monkeypatch.setattr(f"repro.compression.{mod}.largest_k", oracle_largest_k)
    monkeypatch.setattr("repro.compression.dgc.kth_largest",
                        lambda sample, k: np.partition(sample, sample.size - k)[sample.size - k])
    assert payload_pairs(build()) == ours


def test_a_tie_at_the_threshold_of_a_site_delta_stays_on_the_support(monkeypatch):
    """The shape that once fell back to a full-vector partition: a site's
    mean of sparsified deltas, ~79 % exact zeros, with two entries tied at
    the k-th magnitude.  The lower index of the pair is kept, and only the
    support is partitioned."""
    rng = np.random.default_rng(79)
    n, k = 26122, 2612
    v = np.zeros(n, dtype=np.float32)
    support = np.sort(rng.choice(n, size=5485, replace=False))
    v[support] = (rng.permutation(support.size).astype(np.float32) + 1.0) * np.float32(1e-4)
    order = support[np.argsort(-v[support], kind="stable")]
    low, high = sorted(order[k - 1 : k + 1].tolist())
    v[high] = v[low]  # the k-th and (k+1)-th magnitudes now tie
    v *= rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=n)
    assert np.count_nonzero(v == 0) / n > 0.78
    seen = _partitioned(monkeypatch)
    got = TopK(k=k).compress(v).arrays["indices"].astype(np.int64)
    assert [a.size for a in seen] == [support.size]
    assert np.array_equal(got, stable_largest_k(np.abs(v), k))
    assert low in got and high not in got


@pytest.mark.parametrize("build", [
    lambda: TopK(ratio=10),
    lambda: SIDCo(ratio=10),
    lambda: SIDCo(ratio=50, stages=1),
    lambda: DGC(ratio=10, seed=3),
    lambda: DGC(ratio=10, sample_fraction=1.0),
    lambda: RedSync(ratio=10, tolerance=0.0, max_iters=1),
], ids=["topk", "sidco", "sidco_1stage", "dgc", "dgc_full_sample", "redsync"])
@pytest.mark.parametrize("zero_fraction", [0.0, 0.5, 0.79, 0.97])
@pytest.mark.parametrize("tail", ["heavy", "flat", "tied"])
def test_no_partition_ever_sees_a_zero_heavy_vector(monkeypatch, build, zero_fraction, tail):
    """Whatever the sparsifier, no (arg)partition call receives a vector that
    is at least half zeros: that is where numpy's introselect falls off."""
    rng = np.random.default_rng(11)
    if tail == "heavy":
        v = rng.laplace(size=6000) ** 3
    elif tail == "flat":
        v = rng.uniform(-1.0, 1.0, size=6000)
    else:  # few distinct magnitudes: ties at every threshold
        v = rng.integers(-4, 5, size=6000) * 0.25
    v = v.astype(np.float32)
    v[rng.random(v.size) < zero_fraction] = 0.0
    seen = _partitioned(monkeypatch)
    comp = build()
    out = comp.decompress(comp.compress(v))
    assert out.shape == v.shape
    assert all(2 * np.count_nonzero(a == 0) < a.size for a in seen)
