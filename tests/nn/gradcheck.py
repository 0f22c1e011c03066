"""Shared numerical gradient checking for autograd tests (float64)."""

from __future__ import annotations

from typing import Callable

import numpy as np


def numerical_grad(f: Callable[[], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. array ``x`` in place."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        f_plus = f()
        x[idx] = original - eps
        f_minus = f()
        x[idx] = original
        grad[idx] = (f_plus - f_minus) / (2 * eps)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, atol: float = 1e-6) -> None:
    __tracebackhide__ = True
    err = np.abs(np.asarray(analytic) - numeric).max()
    assert err < atol, f"gradient mismatch: max abs err {err:.3e} (atol {atol})"


def conv2d_reference(x, w, b, stride, padding, groups, grad_out=None):
    """Direct-loop cross-correlation, one output element at a time.

    Returns ``out`` alone, or ``(out, gx, gw, gb)`` for an upstream gradient
    ``grad_out`` — the reference every conv2d arrangement is compared against.
    Computed in float64 whatever the input dtype, so a float32 result is
    compared with the exact value, not with another rounding of it.
    """
    x, w = x.astype(np.float64), w.astype(np.float64)
    (sh, sw), (ph, pw) = stride, padding
    n, c, h, wd = x.shape
    f, cg, kh, kw = w.shape
    fg = f // groups
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, f, oh, ow), dtype=x.dtype)
    gxp, gw, gb = np.zeros_like(xp), np.zeros_like(w), np.zeros(f, dtype=x.dtype)
    for fi in range(f):
        cs = slice((fi // fg) * cg, (fi // fg + 1) * cg)
        for i in range(oh):
            for j in range(ow):
                rows, cols = slice(i * sh, i * sh + kh), slice(j * sw, j * sw + kw)
                patch = xp[:, cs, rows, cols]
                out[:, fi, i, j] = (patch * w[fi]).sum(axis=(1, 2, 3))
                if grad_out is not None:
                    go = grad_out[:, fi, i, j]
                    gw[fi] += (go[:, None, None, None] * patch).sum(axis=0)
                    gxp[:, cs, rows, cols] += go[:, None, None, None] * w[fi]
                    gb[fi] += go.sum()
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    if grad_out is None:
        return out
    return out, gxp[:, :, ph : ph + h, pw : pw + wd], gw, gb


def assert_matches(actual: np.ndarray, reference: np.ndarray, rtol: float) -> None:
    """Max abs error within ``rtol`` of the reference's largest magnitude."""
    __tracebackhide__ = True
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape, f"shape {actual.shape} != {reference.shape}"
    scale = max(1.0, float(np.abs(reference).max(initial=0.0)))
    err = float(np.abs(actual - reference).max(initial=0.0))
    assert err <= rtol * scale, f"max abs err {err:.3e} > {rtol:g} x {scale:.3g}"


def linear_reference(x, weight, bias=None):
    """``F.linear`` as three tape nodes — transpose, matmul, add — which is how
    it was written before it recorded one.  The one-node form must agree with
    this one bit for bit, output and gradients."""
    out = x.matmul(weight.T)
    return out if bias is None else out + bias
