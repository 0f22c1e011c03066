"""The leading-axis contract of the array kernels behind ``F.linear``,
``F.relu``, ``F.cross_entropy`` and ``SGD.step``.

The tape ops call them with no leading axis; the fused turn runner calls
them on ``(K, ...)`` client stacks.  Fused turns are bit-identical to
per-turn ones because — and only because — slice ``k`` of a stacked call is,
bit for bit, the unstacked call on slice ``k``.  That is what is checked
here, kernel by kernel, over K in 1..5 and batch sizes 1..9 (the single-
sample batch takes the rank-one weight gradient; K = 1 is a group of one).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.optim import SGD

stacks = st.integers(1, 5)
batches = st.integers(1, 9)
widths = st.integers(1, 6)
dtypes = st.sampled_from([np.float32, np.float64])
seeds = st.integers(0, 2**31 - 1)


def same_bits(stacked, single, what):
    assert stacked.dtype == single.dtype and stacked.shape == single.shape, what
    assert np.ascontiguousarray(stacked).tobytes() == np.ascontiguousarray(single).tobytes(), what


def draw(rng, shape, dtype):
    # a sprinkle of exact zeros, as relu leaves in real activations/gradients
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.2] = 0.0
    return a.astype(dtype)


@settings(max_examples=60, deadline=None)
@given(stacks, batches, widths, widths, dtypes, st.booleans(), seeds)
def test_linear_stack_is_its_slices(K, n, d_in, d_out, dtype, with_bias, seed):
    rng = np.random.default_rng(seed)
    x, w = draw(rng, (K, n, d_in), dtype), draw(rng, (K, d_out, d_in), dtype)
    b = draw(rng, (K, d_out), dtype) if with_bias else None
    g = draw(rng, (K, n, d_out), dtype)
    before = [a.copy() for a in (x, w, g)]

    out = F._linear_fw(x, w, b)
    gx, gw, gb = F._linear_bw(x, w, b, g)
    assert F._linear_bw(x, w, b, g, need_gx=False)[0] is None
    assert (gb is None) == (b is None)
    for k in range(K):
        xk, wk, gk = x[k].copy(), w[k].copy(), g[k].copy()
        bk = None if b is None else b[k].copy()
        same_bits(out[k], F._linear_fw(xk, wk, bk), "forward")
        gx_k, gw_k, gb_k = F._linear_bw(xk, wk, bk, gk)
        same_bits(gx[k], gx_k, "input gradient")
        same_bits(gw[k], gw_k, "weight gradient")
        if b is not None:
            same_bits(gb[k], gb_k, "bias gradient")
    for a, kept in zip((x, w, g), before):  # kernels never write their inputs
        assert a.tobytes() == kept.tobytes()


@settings(max_examples=40, deadline=None)
@given(stacks, batches, widths, dtypes, seeds)
def test_relu_stack_is_its_slices(K, n, d, dtype, seed):
    rng = np.random.default_rng(seed)
    x, g = draw(rng, (K, n, d), dtype), draw(rng, (K, n, d), dtype)
    kept = g.copy()
    out, mask = F._relu_fw(x)
    gx = F._relu_bw(g, mask)
    for k in range(K):
        out_k, mask_k = F._relu_fw(x[k].copy())
        same_bits(out[k], out_k, "forward")
        same_bits(gx[k], F._relu_bw(g[k].copy(), mask_k), "backward")
    assert g.tobytes() == kept.tobytes()


@settings(max_examples=60, deadline=None)
@given(stacks, batches, st.integers(2, 6), dtypes, st.booleans(), seeds)
def test_cross_entropy_stack_is_its_slices(K, n, classes, dtype, mean, seed):
    rng = np.random.default_rng(seed)
    logits = draw(rng, (K, n, classes), dtype) * 4
    target = rng.integers(0, classes, size=(K, n))
    kept = logits.copy()
    loss, log_probs, picked = F._cross_entropy_fw(logits, target, mean)
    delta = F._cross_entropy_bw(log_probs, picked, mean)
    correct = F._correct_count(logits, target)
    assert loss.shape == correct.shape == (K,)
    for k in range(K):
        lk, tk = logits[k].copy(), target[k].copy()
        loss_k, log_probs_k, picked_k = F._cross_entropy_fw(lk, tk, mean)
        same_bits(loss[k], loss_k, "loss value")
        same_bits(delta[k], F._cross_entropy_bw(log_probs_k, picked_k, mean), "softmax gradient")
        assert int(correct[k]) == int(F._correct_count(lk, tk))
    assert logits.tobytes() == kept.tobytes()


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@settings(max_examples=25, deadline=None)
@given(stacks, batches, widths, dtypes, seeds)
def test_sgd_stack_is_its_slices_over_two_steps(momentum, weight_decay, K, d_out, d_in, dtype, seed):
    rng = np.random.default_rng(seed)
    p = draw(rng, (K, d_out, d_in), dtype)
    singles = [p[k].copy() for k in range(K)]
    state, single_states = {}, [{} for _ in range(K)]
    for _ in range(2):  # the second step reads the momentum buffer the first wrote
        g = draw(rng, (K, d_out, d_in), dtype)
        kept = g.copy()
        SGD._update(p, g, state, 0.05, momentum, weight_decay)
        assert g.tobytes() == kept.tobytes()  # SGD.step leaves p.grad intact
        for k in range(K):
            SGD._update(singles[k], g[k].copy(), single_states[k], 0.05, momentum, weight_decay)
            same_bits(p[k], singles[k], "parameter")
            if momentum:
                same_bits(state["momentum_buffer"][k],
                          single_states[k]["momentum_buffer"], "momentum buffer")
    assert bool(state) == bool(momentum)
