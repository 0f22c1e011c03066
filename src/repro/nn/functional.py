"""Fused functional ops: activations, convolution, pooling, norm, losses.

Convolution is im2col + GEMM.  One strided copy lays the (zero-padded) input
out as a column matrix and plain ``np.matmul`` does the rest; grouped and
depthwise convolutions are the same call with a group axis on both operands.

*Layout.*  Columns are ``(N, G, K, Q)`` — ``K = C/G * KH * KW`` taps, ``Q``
positions per image — so ``(G, F/G, K) @ cols`` lands in output layout.  With
stride 1 a column runs along whole padded rows (``Q = (OH-1) * padded_width +
OW``): each tap is one long contiguous run per image rather than OH short
ones, which is what the copy's cost depends on, and the few positions between
rows are skipped when the result is gathered back into an image.  Strided
convolutions copy exactly ``OH * OW`` positions.

*Fold rule.*  Batched per-sample GEMMs degenerate when ``Q`` is small (a 1x1
map is a matrix-vector product per sample), so when one image has at most
``_FOLD_MAX_POSITIONS`` positions the batch is folded into the GEMM's long
side instead: columns ``(G, K, N*Q)``, one GEMM per group.  The arrangement
is chosen from the call's own shapes, forward and backward independently.

*Backward.*  For stride 1 the input gradient is the correlation of the padded
output gradient with the flipped kernel, and the columns built for it also
give the weight gradient when contracted with ``x``; strided convolutions
rebuild the forward columns for the weight gradient and scatter the column
gradient tap by tap (KH*KW slice-adds, not ``np.add.at``).  The column matrix
is never kept on the tape: it is KH*KW times the size of the activation it
came from (several MB per in-flight resnet turn, times the pool's threads),
and rebuilding it costs one copy.

BatchNorm and cross-entropy get hand-written backwards to keep the tape short
on the hot path; BatchNorm's training pass centres ``x`` once and its backward
reuses the two reductions the affine gradients need.

*Array kernels.*  ``linear``, ``relu`` and ``cross_entropy`` wrap ``_*_fw`` /
``_*_bw`` functions over plain arrays, which accept leading stack axes (the
fused turn runner's ``(K, ...)`` client stacks) and never write their inputs:
slice ``k`` is bit for bit the unstacked call — DESIGN.md, "Kernels".
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import Tensor

__all__ = [
    "relu",
    "hard_sigmoid",
    "hard_swish",
    "linear",
    "conv2d",
    "max_pool2d",
    "adaptive_avg_pool2d",
    "batch_norm",
    "dropout",
    "cross_entropy",
]

_Pair = Union[int, Tuple[int, int]]

#: conv2d folds the batch into the GEMM's long side when one image has at most
#: this many column positions (per-sample GEMMs that thin are all overhead)
_FOLD_MAX_POSITIONS = 32


def _pair(value: _Pair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def _relu_fw(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(max(x, 0), mask)``; the mask is what :func:`_relu_bw` needs.  Bit for
    bit ``where(x > 0, x, 0)`` without its branch: ``fmax`` maps NaN to 0
    (``maximum`` keeps NaN) and adding +0 turns -0 into +0."""
    mask = x > 0
    out = np.fmax(x, x.dtype.type(0))
    out += x.dtype.type(0)
    return out, mask


def _relu_bw(grad: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad * mask


def relu(x: Tensor) -> Tensor:
    data, mask = _relu_fw(x.data)

    def _bw(grad: np.ndarray) -> None:
        x._accumulate(_relu_bw(grad, mask))

    return Tensor._make(data, (x,), _bw)


def hard_sigmoid(x: Tensor) -> Tensor:
    """Piecewise-linear sigmoid used by MobileNetV3: clip(x/6 + 0.5, 0, 1)."""
    data = np.clip(x.data / 6.0 + 0.5, 0.0, 1.0).astype(x.data.dtype, copy=False)
    mask = ((x.data > -3.0) & (x.data < 3.0)).astype(x.data.dtype) / 6.0

    def _bw(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, (x,), _bw)


def hard_swish(x: Tensor) -> Tensor:
    """x * hard_sigmoid(x) — MobileNetV3's h-swish."""
    hs = np.clip(x.data / 6.0 + 0.5, 0.0, 1.0)
    data = (x.data * hs).astype(x.data.dtype, copy=False)
    inner = ((x.data > -3.0) & (x.data < 3.0)).astype(x.data.dtype) / 6.0
    deriv = hs + x.data * inner

    def _bw(grad: np.ndarray) -> None:
        x._accumulate(grad * deriv)

    return Tensor._make(data, (x,), _bw)


# ---------------------------------------------------------------------------
# Linear / convolution
# ---------------------------------------------------------------------------


def _linear_fw(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
    """``x @ w.T + b`` over ``(..., n, in)``, ``(..., out, in)``, ``(..., out)``."""
    out = np.matmul(x, w.swapaxes(-1, -2))
    return out if b is None else out + b[..., None, :]


def _linear_bw(
    x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray], grad: np.ndarray, need_gx: bool = True
) -> Tuple[Optional[np.ndarray], np.ndarray, Optional[np.ndarray]]:
    """``(gx, gw, gb)`` for :func:`_linear_fw` given the output gradient.

    ``gw`` stays ``(x.T @ g).T`` — ``g.T @ x`` is another GEMM with other
    rounding — except for a single sample, where the product is rank one:
    one multiply per element, the GEMM's value (but for the sign of a zero)
    without a GEMM dispatch per stacked slice.
    """
    gb = None if b is None else np.asarray(grad, dtype=b.dtype).sum(axis=-2)
    # the product's own dtype: a wider bias must not widen the two GEMMs
    g = np.asarray(grad, dtype=np.result_type(x, w))
    gx = np.matmul(g, w) if need_gx else None
    if g.shape[-2] == 1:
        gw = g.swapaxes(-1, -2) * x
    else:
        gw = np.matmul(x.swapaxes(-1, -2), g).swapaxes(-1, -2)
    return gx, gw, gb


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` with (out_features, in_features) weight layout.

    A 2-D input — every model's classifier and the whole MLP path — records
    one tape node in place of transpose, matmul and add, evaluating the same
    numpy expressions in the same order so no bit moves (see
    :func:`_linear_bw` for the weight gradient; the bias gradient is the sum
    over the batch ``_accumulate`` would have taken).  Batched inputs keep the
    composed form: there matmul's backward sums the batch axes itself, in an
    order this node does not reproduce.
    """
    if x.data.ndim != 2 or weight.data.ndim != 2:
        out = x.matmul(weight.T)
        return out if bias is None else out + bias
    w = weight.data
    b = None if bias is None else bias.data
    data = _linear_fw(x.data, w, b)

    def _bw(grad: np.ndarray) -> None:
        # a first layer's input takes no gradient; all three products before
        # any accumulates: when x feeds a second consumer its grad can be
        # this very array, and accumulating adds into it in place
        gx, gw, gb = _linear_bw(x.data, w, b, grad, x.requires_grad)
        if gb is not None:
            bias._accumulate(gb)
        if gx is not None:
            x._accumulate(gx)
        weight._accumulate(gw)

    return Tensor._make(data, (x, weight) if bias is None else (x, weight, bias), _bw)


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Pooling windows of shape (N, C, OH, OW, KH, KW), as a view."""
    return sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw, :, :]


def _strided(a: np.ndarray, shape: Tuple[int, ...], strides: Tuple[int, ...]) -> np.ndarray:
    """``as_strided`` over a C-contiguous array, minus the ~6 µs of Python it
    costs per call (conv2d makes several per layer) and with numpy checking
    that the view stays inside ``a``."""
    return np.ndarray(shape, a.dtype, a, 0, strides)


def _pad2d(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the two image axes; the result is always C-contiguous."""
    if not (ph or pw):
        return np.ascontiguousarray(x)
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    out[:, :, ph : ph + h, pw : pw + w] = x
    return out


def _arrangement(oh: int, ow: int, padded_width: int, unit_stride: bool) -> Tuple[int, bool]:
    """``(pitch, fold)`` for OH x OW positions read from rows ``padded_width``
    wide: the distance between the starts of two rows of positions, and whether
    one image has few enough of them to fold the batch into the GEMM."""
    pitch = padded_width if unit_stride else ow
    return pitch, (oh - 1) * pitch + ow <= _FOLD_MAX_POSITIONS


def _columns(
    xp: np.ndarray, groups: int, kh: int, kw: int, sh: int, sw: int, oh: int, ow: int, fold: bool
) -> np.ndarray:
    """Column matrix of a padded, C-contiguous input in one strided copy:
    ``(N, G, K, Q)``, or ``(G, K, N*Q)`` when ``fold`` (see the module docstring).

    With stride 1, ``Q = (OH-1) * pitch + OW`` with ``pitch`` the padded width;
    the ``pitch - OW`` positions between rows hold neighbouring values, which
    :func:`_image_view` steps over and :func:`_to_positions` meets with zeros.
    """
    n, c, _, wp = xp.shape
    k = (c // groups) * kh * kw
    if kh == kw == sh == sw == 1 and not fold:
        return xp.reshape(n, groups, k, oh * ow)
    sn, sc, sy, sx = xp.strides
    if sh == sw == 1:
        q = (oh - 1) * wp + ow
        shape, strides = (q,), (sx,)
    else:
        q = oh * ow
        shape, strides = (oh, ow), (sy * sh, sx * sw)
    if fold:
        shape, strides = (c, kh, kw, n) + shape, (sc, sy, sx, sn) + strides
    else:
        shape, strides = (n, c, kh, kw) + shape, (sn, sc, sy, sx) + strides
    cols = np.empty(shape, dtype=xp.dtype)
    np.copyto(cols, _strided(xp, shape, strides))
    return cols.reshape((groups, k, n * q) if fold else (n, groups, k, q))


def _image_view(buf: np.ndarray, n: int, oh: int, ow: int, pitch: int, fold: bool) -> np.ndarray:
    """(N, R, OH, OW) view of a C-contiguous position-major buffer — (N, .., Q)
    rows, or (.., N*Q) when ``fold`` — that steps over the gaps between rows."""
    q = (oh - 1) * pitch + ow
    r = buf.shape[-3] * buf.shape[-2]  # (G, R/G) precede the positions in both layouts
    s = buf.itemsize
    strides = (q * s, n * q * s, pitch * s, s) if fold else (r * q * s, q * s, pitch * s, s)
    return _strided(buf, (n, r, oh, ow), strides)


def _to_positions(a: np.ndarray, groups: int, pitch: int, fold: bool) -> np.ndarray:
    """Lay an (N, R, OH, OW) image out the way :func:`_columns` lays positions
    out — (N, G, R/G, Q), or (G, R/G, N*Q) — with zeros in the gaps between rows."""
    n, r, oh, ow = a.shape
    if pitch == ow and not fold:
        return a.reshape(n, groups, r // groups, oh * ow)
    q = (oh - 1) * pitch + ow
    shape = (groups, r // groups, n * q) if fold else (n, groups, r // groups, q)
    buf = np.zeros(shape, dtype=a.dtype)
    _image_view(buf, n, oh, ow, pitch, fold)[...] = a
    return buf


def _matmul_image(
    a: np.ndarray, cols: np.ndarray, n: int, oh: int, ow: int, pitch: int, fold: bool
) -> np.ndarray:
    """``a @ cols`` with the positions gathered back into a contiguous
    (N, R, OH, OW) image that owns its memory (so ``_accumulate`` keeps it)."""
    if pitch == ow and not fold:  # already in image layout: let the GEMM write it
        out = np.empty((n, a.shape[0] * a.shape[1], oh, ow), dtype=np.result_type(a, cols))
        np.matmul(a, cols, out=out.reshape(n, a.shape[0], a.shape[1], oh * ow))
        return out
    view = _image_view(np.matmul(a, cols), n, oh, ow, pitch, fold)
    out = np.empty(view.shape, dtype=view.dtype)
    np.copyto(out, view)
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: _Pair = 1,
    padding: _Pair = 0,
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation (PyTorch convention) with grouped support.

    Shapes: x (N, C, H, W), weight (F, C/groups, KH, KW) -> (N, F, OH, OW).
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x.data.shape
    f, cg, kh, kw = weight.data.shape
    if c != cg * groups:
        raise ValueError(f"conv2d channel mismatch: x has {c}, weight implies {cg * groups}")
    if f % groups:
        raise ValueError(f"out_channels {f} not divisible by groups {groups}")
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"conv2d kernel {(kh, kw)} exceeds the padded input {(h + 2 * ph, w + 2 * pw)}")
    fg = f // groups
    unit_stride = sh == sw == 1
    pitch, fold = _arrangement(oh, ow, w + 2 * pw, unit_stride)
    xp = _pad2d(x.data, ph, pw)
    w3 = weight.data.reshape(groups, fg, cg * kh * kw)
    # the columns die here: backward rebuilds what it needs (see the module docstring)
    out = _matmul_image(w3, _columns(xp, groups, kh, kw, sh, sw, oh, ow, fold), n, oh, ow, pitch, fold)
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1)

    if unit_stride and ph < kh and pw < kw:
        # Stride 1: the input gradient is the correlation of the zero-padded
        # output gradient with the flipped, channel-transposed kernel, and the
        # same columns contracted with x give the (flipped) weight gradient —
        # one column matrix for both, no scatter, and only x itself is kept.
        def _bw_inputs(g: np.ndarray) -> None:
            bpitch, bfold = _arrangement(h, w, w + kw - 1, True)
            gcols = _columns(_pad2d(g, kh - 1 - ph, kw - 1 - pw), groups, kh, kw, 1, 1, h, w, bfold)
            if weight.requires_grad:
                gw = np.matmul(gcols, _to_positions(x.data, groups, bpitch, bfold).swapaxes(-1, -2))
                if not bfold:
                    gw = gw.sum(axis=0)
                gw = gw.reshape(groups, fg, kh, kw, cg)[:, :, ::-1, ::-1].transpose(0, 1, 4, 2, 3)
                weight._accumulate(gw.reshape(weight.data.shape))
            if x.requires_grad:
                wf = w3.reshape(groups, fg, cg, kh, kw)[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
                wf = wf.reshape(groups, cg, fg * kh * kw)
                x._accumulate(_matmul_image(wf, gcols, n, h, w, bpitch, bfold))

    else:
        # Strided (or padded beyond the kernel): weight gradient from the
        # rebuilt columns, input gradient by scattering the column gradient
        # tap by tap — rows and columns no window covers stay zero.
        def _bw_inputs(g: np.ndarray) -> None:
            g3 = _to_positions(g, groups, pitch, fold)
            if weight.requires_grad:
                gw = np.matmul(g3, _columns(xp, groups, kh, kw, sh, sw, oh, ow, fold).swapaxes(-1, -2))
                if not fold:
                    gw = gw.sum(axis=0)
                weight._accumulate(gw.reshape(weight.data.shape))
            if x.requires_grad:
                gcols = _image_view(np.matmul(w3.swapaxes(-1, -2), g3), n, oh, ow, pitch, fold)
                gcols = gcols.reshape(n, c, kh, kw, oh, ow)
                gx = np.zeros(xp.shape, dtype=x.data.dtype)
                for i in range(kh):
                    for j in range(kw):
                        gx[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += gcols[:, :, i, j]
                if ph or pw:
                    gx = gx[:, :, ph : ph + h, pw : pw + w]
                x._accumulate(gx)

    def _bw(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        _bw_inputs(g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, _bw)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def max_pool2d(x: Tensor, kernel_size: _Pair, stride: Optional[_Pair] = None) -> Tensor:
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    n, c, h, w = x.data.shape
    if h < kh or w < kw:
        return x  # input already smaller than the window (deep nets on tiny images)
    windows = _windows(x.data, kh, kw, sh, sw)
    oh, ow = windows.shape[2:4]
    flat = windows.reshape(n, c, oh, ow, kh * kw)
    arg = flat.argmax(axis=-1)
    data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def _bw(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        gx = np.zeros((n, c, h, w), dtype=x.data.dtype)
        ki, kj = np.divmod(arg, kw)
        oh_idx, ow_idx = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
        rows = oh_idx[None, None] * sh + ki
        cols_ = ow_idx[None, None] * sw + kj
        n_idx = np.arange(n)[:, None, None, None]
        c_idx = np.arange(c)[None, :, None, None]
        np.add.at(gx, (n_idx, c_idx, rows, cols_), g)
        x._accumulate(gx)

    return Tensor._make(np.ascontiguousarray(data), (x,), _bw)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Global average pooling when ``output_size == 1`` (the only case used)."""
    if output_size != 1:
        raise NotImplementedError("only global (1x1) adaptive pooling is implemented")
    n, c, h, w = x.data.shape
    data = x.data.mean(axis=(2, 3), keepdims=True)

    def _bw(grad: np.ndarray) -> None:
        g = np.asarray(grad) / (h * w)
        x._accumulate(np.broadcast_to(g, x.data.shape))

    return Tensor._make(data, (x,), _bw)


# ---------------------------------------------------------------------------
# Normalization / regularization
# ---------------------------------------------------------------------------


def batch_norm(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over all axes except channel (axis 1 for 4-D, -1 for 2-D).

    ``running_mean``/``running_var`` are updated in place during training,
    matching PyTorch's exponential-moving-average convention.
    """
    if x.data.ndim == 4:
        axes: Tuple[int, ...] = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.data.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.data.ndim}-D")

    m = x.data.size / x.data.shape[1]
    if training:
        mean = x.data.mean(axis=axes)
        x_hat = x.data - mean.reshape(shape)
        data = x_hat * x_hat
        var = data.sum(axis=axes) / m  # == x.data.var(axis=axes), without centering twice
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var * (m / max(m - 1.0, 1.0))  # unbiased, as torch
        inv_std = 1.0 / np.sqrt(var + eps)
        x_hat *= inv_std.reshape(shape)
        np.multiply(x_hat, weight.data.reshape(shape), out=data)
        data += bias.data.reshape(shape)
    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        x_hat = (x.data - running_mean.reshape(shape)) * inv_std.reshape(shape)
        data = x_hat * weight.data.reshape(shape) + bias.data.reshape(shape)

    def _bw(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        gx = g * x_hat
        sum_gx = gx.sum(axis=axes)
        sum_g = g.sum(axis=axes)
        if weight.requires_grad:
            weight._accumulate(sum_gx)
        if bias.requires_grad:
            bias._accumulate(sum_g)
        if x.requires_grad:
            if training:
                # w * inv_std * (g - mean(g) - x_hat * mean(g * x_hat)), in the one temporary
                np.multiply(x_hat, (sum_gx / m).reshape(shape), out=gx)
                np.subtract(g, gx, out=gx)
                gx -= (sum_g / m).reshape(shape)
                gx *= (weight.data * inv_std).reshape(shape)
                x._accumulate(gx)
            else:
                x._accumulate(g * weight.data.reshape(shape) * inv_std.reshape(shape))

    return Tensor._make(data.astype(x.data.dtype, copy=False), (x, weight, bias), _bw)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    generator = rng if rng is not None else np.random.default_rng()
    mask = (generator.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    data = x.data * mask

    def _bw(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(data, (x,), _bw)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _cross_entropy_fw(
    logits: np.ndarray, target: np.ndarray, mean: bool = True
) -> Tuple[np.ndarray, np.ndarray, tuple]:
    """Per-batch loss over ``(..., n, classes)`` logits and ``(..., n)``
    labels, with what :func:`_cross_entropy_bw` needs: the log-probabilities
    and the index that picks each sample's label out of them."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))  # now log-probs
    picked = (*np.indices(target.shape, sparse=True), target)
    losses = -shifted[picked]
    return (losses.mean(axis=-1) if mean else losses.sum(axis=-1)), shifted, picked


def _cross_entropy_bw(log_probs: np.ndarray, picked: tuple, mean: bool = True) -> np.ndarray:
    """Gradient of the loss w.r.t. the logits: ``softmax - onehot`` (``/ n``)."""
    delta = np.exp(log_probs)
    delta[picked] -= 1.0
    if mean:
        delta /= log_probs.shape[-2]
    return delta


def _correct_count(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Samples per batch whose arg-max class is their label."""
    return (logits.argmax(axis=-1) == target).sum(axis=-1)


def cross_entropy(logits: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy against integer class labels (fused backward)."""
    target = np.asarray(target)
    if target.ndim != 1:
        raise ValueError("target must be a 1-D array of class indices")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    mean = reduction == "mean"
    value, log_probs, picked = _cross_entropy_fw(logits.data, target, mean)

    def _bw(grad: np.ndarray) -> None:
        logits._accumulate(_cross_entropy_bw(log_probs, picked, mean) * float(np.asarray(grad)))

    return Tensor._make(np.asarray(value, dtype=logits.data.dtype), (logits,), _bw)
