import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    COMPRESSORS,
    DGC,
    ErrorFeedback,
    IdentityCompressor,
    PowerSGD,
    QSGD,
    RandomK,
    TopK,
    build_compressor,
)

ALL_SPARSIFIERS = [
    ("topk", dict(ratio=10)),
    ("randomk", dict(ratio=10, unbiased=False)),
    ("dgc", dict(ratio=10)),
    ("redsync", dict(ratio=10)),
    ("sidco", dict(ratio=10)),
]


@pytest.fixture
def vec(rng):
    return rng.standard_normal(5000).astype(np.float32)


# ------------------------------------------------------------ general contract
@pytest.mark.parametrize(
    "name,kw",
    ALL_SPARSIFIERS + [("qsgd", dict(bits=8)), ("powersgd", dict(rank=8)), ("identity", {})],
)
def test_roundtrip_shape_and_finiteness(name, kw, vec):
    comp = build_compressor(name, **kw)
    out = comp.roundtrip(vec)
    assert out.shape == vec.shape
    assert np.isfinite(out).all()


@pytest.mark.parametrize("name,kw", ALL_SPARSIFIERS)
def test_sparsifier_keeps_subset_of_values(name, kw, vec):
    comp = build_compressor(name, **kw)
    out = comp.roundtrip(vec)
    nonzero = np.flatnonzero(out)
    if name != "randomk":
        # kept values must equal the originals at those positions
        assert np.allclose(out[nonzero], vec[nonzero])
    assert nonzero.size < vec.size


@pytest.mark.parametrize("name,kw", ALL_SPARSIFIERS)
def test_sparsifier_hits_target_within_2x(name, kw, vec):
    comp = build_compressor(name, **kw)
    payload = comp.compress(vec)
    k = int(payload.meta["k"])
    target = vec.size / kw["ratio"]
    assert target / 2 <= k <= 2 * target


def test_compressed_bytes_reported(vec):
    payload = TopK(ratio=10).compress(vec)
    assert payload.original_bytes == vec.nbytes
    assert payload.compressed_bytes < vec.nbytes
    assert payload.ratio > 1


# ------------------------------------------------------------ TopK specifics
def test_topk_selects_true_topk(rng):
    v = np.array([0.1, -5.0, 0.2, 3.0, -0.05, 1.0], dtype=np.float32)
    out = TopK(k=3).roundtrip(v)
    assert set(np.flatnonzero(out)) == {1, 3, 5}
    assert np.allclose(out[[1, 3, 5]], [-5.0, 3.0, 1.0])


def test_topk_ratio_one_is_lossless(vec):
    assert np.allclose(TopK(ratio=1).roundtrip(vec), vec)


def test_topk_invalid_ratio():
    with pytest.raises(ValueError):
        TopK(ratio=0.5)


def test_empty_vector_rejected():
    with pytest.raises(ValueError):
        TopK(ratio=10).compress(np.zeros(0, np.float32))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 500),
    k=st.integers(1, 50),
    seed=st.integers(0, 999),
)
def test_topk_property_magnitudes(n, k, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n).astype(np.float32)
    k = min(k, n)
    out = TopK(k=k).roundtrip(v)
    kept = np.abs(v[np.flatnonzero(out)])
    dropped = np.abs(v[out == 0])
    if kept.size and dropped.size:
        assert kept.min() >= dropped.max() - 1e-6


# ------------------------------------------------------------ RandomK
def test_randomk_deterministic_indices_from_seed(vec):
    c1 = RandomK(ratio=10, seed=7)
    c2 = RandomK(ratio=10, seed=7)
    assert np.allclose(c1.roundtrip(vec), c2.roundtrip(vec))


def test_randomk_rounds_differ(vec):
    c = RandomK(ratio=10, seed=7)
    a = c.roundtrip(vec)
    b = c.roundtrip(vec)
    assert not np.allclose(a, b)
    c.reset()
    assert np.allclose(c.roundtrip(vec), a)


def test_randomk_unbiased_in_expectation(rng):
    v = rng.standard_normal(100).astype(np.float32)
    c = RandomK(ratio=4, seed=0, unbiased=True)
    est = np.mean([c.roundtrip(v) for _ in range(800)], axis=0)
    assert np.abs(est - v).mean() < 0.15


def test_randomk_payload_has_no_index_array(vec):
    payload = RandomK(ratio=10).compress(vec)
    assert "indices" not in payload.arrays
    assert payload.arrays["seed"].size == 2


# ------------------------------------------------------------ QSGD
def test_qsgd_unbiased(rng):
    v = rng.standard_normal(64).astype(np.float32)
    c = QSGD(bits=4, seed=1)
    est = np.mean([c.roundtrip(v) for _ in range(1500)], axis=0)
    assert np.abs(est - v).max() < 0.1


def test_qsgd_16bit_nearly_lossless(vec):
    out = QSGD(bits=16).roundtrip(vec)
    assert np.abs(out - vec).max() < 1e-3 * np.abs(vec).max()


def test_qsgd_compression_factors(vec):
    p8 = QSGD(bits=8).compress(vec)
    p16 = QSGD(bits=16).compress(vec)
    # the paper: 8-bit ~ 4x, 16-bit ~ 2x w.r.t. float32 (minus sign bits)
    assert 3.0 < p8.ratio < 4.1
    assert 1.7 < p16.ratio < 2.1


def test_qsgd_zero_vector():
    out = QSGD(bits=8).roundtrip(np.zeros(16, np.float32))
    assert np.allclose(out, 0)


def test_qsgd_invalid_bits():
    with pytest.raises(ValueError):
        QSGD(bits=7)


def test_qsgd_sign_preservation(rng):
    v = rng.standard_normal(256).astype(np.float32) * 10
    out = QSGD(bits=16).roundtrip(v)
    big = np.abs(v) > 0.5
    assert np.array_equal(np.sign(out[big]), np.sign(v[big]))


# ------------------------------------------------------------ PowerSGD
def test_powersgd_exact_for_rank1_matrix():
    u = np.arange(1, 33, dtype=np.float32)
    v = np.linspace(-1, 1, 32).astype(np.float32)
    m = np.outer(u, v).ravel()
    out = PowerSGD(rank=4, warm_start=False).roundtrip(m)
    assert np.abs(out - m).max() < 1e-3 * np.abs(m).max()


def test_powersgd_warm_start_improves(rng):
    v = rng.standard_normal(1024).astype(np.float32)
    c = PowerSGD(rank=4, warm_start=True)
    first = np.linalg.norm(c.roundtrip(v) - v)
    for _ in range(6):
        last = np.linalg.norm(c.roundtrip(v) - v)
    assert last <= first + 1e-4


def test_powersgd_payload_size(vec):
    p = PowerSGD(rank=8).compress(vec)
    rows, cols = p.meta["rows"], p.meta["cols"]
    assert p.arrays["p"].shape == (rows, 8)
    assert p.arrays["q"].shape == (cols, 8)


def test_powersgd_reset_clears_cache(vec):
    c = PowerSGD(rank=4)
    c.compress(vec)
    assert c._q_cache
    c.reset()
    assert not c._q_cache


def test_powersgd_rank_clamped_to_matrix():
    out = PowerSGD(rank=64).roundtrip(np.ones(9, np.float32))
    assert np.allclose(out, 1.0, atol=1e-4)


# ------------------------------------------------------------ ErrorFeedback
def test_error_feedback_accumulates_residual(rng):
    ef = ErrorFeedback(TopK(ratio=50))
    g = rng.standard_normal(500).astype(np.float32)
    ef.compress(g)
    assert ef.residual_norm > 0


def test_error_feedback_recovers_cumulative_signal(rng):
    # with a constant gradient, EF eventually transmits everything:
    # cumulative output ~ cumulative input (up to one round's residual)
    g = rng.standard_normal(400).astype(np.float32)
    ef = ErrorFeedback(TopK(ratio=20))
    total_out = np.zeros_like(g)
    rounds = 100
    for _ in range(rounds):
        total_out += ef.decompress(ef.compress(g))
    err = np.linalg.norm(rounds * g - total_out) / np.linalg.norm(rounds * g)
    no_ef = TopK(ratio=20)
    total_plain = sum(no_ef.roundtrip(g) for _ in range(rounds))
    err_plain = np.linalg.norm(rounds * g - total_plain) / np.linalg.norm(rounds * g)
    assert err < err_plain


def test_error_feedback_reset(rng):
    ef = ErrorFeedback(TopK(ratio=10))
    ef.compress(rng.standard_normal(100).astype(np.float32))
    ef.reset()
    assert ef.residual_norm == 0.0


def test_identity_is_lossless(vec):
    payload = IdentityCompressor().compress(vec)
    assert payload.ratio == pytest.approx(1.0)
    assert np.array_equal(IdentityCompressor().decompress(payload), vec)


def test_registry_has_all_paper_compressors():
    for name in ["topk", "randomk", "dgc", "redsync", "sidco", "qsgd", "powersgd"]:
        assert name in COMPRESSORS


def test_collective_hints():
    # paper §3.4.2: sparsification uses all-gather; quantization/low-rank all-reduce
    assert TopK(ratio=10).collective_hint == "allgather"
    assert DGC(ratio=10).collective_hint == "allgather"
    assert QSGD(bits=8).collective_hint == "allreduce"
    assert PowerSGD(rank=4).collective_hint == "allreduce"
