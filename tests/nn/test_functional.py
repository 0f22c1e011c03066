import numpy as np
import pytest

from repro.models import build_model
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad
from tests.nn.gradcheck import (
    assert_grad_close,
    assert_matches,
    conv2d_reference,
    linear_reference,
    numerical_grad,
)


def f64(shape, rng):
    return rng.standard_normal(shape)


# ------------------------------------------------------------- activations
@pytest.mark.parametrize(
    "fn",
    [F.relu, F.leaky_relu, F.sigmoid, F.hard_sigmoid, F.hard_swish, F.tanh],
)
def test_activation_grads(fn, rng):
    x_data = f64((3, 7), rng) + 0.05  # keep away from kinks

    def run():
        return (fn(Tensor(x_data, requires_grad=True)) * 1.3).sum()

    x = Tensor(x_data, requires_grad=True)
    (fn(x) * 1.3).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data), atol=1e-5)


def test_relu_zeroes_negatives():
    out = F.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.allclose(out.data, [0.0, 0.0, 2.0])


def relu_reference(x):
    """The expression ``_relu_fw`` replaced; its values are the contract."""
    return np.where(x > 0, x, 0.0).astype(x.dtype, copy=False)


def relu_edge_values(rng, size, dtype):
    """Ordinary values with NaN of both signs, signed zeros, infinities,
    subnormals of both signs and +-max sprinkled over half the positions."""
    info = np.finfo(dtype)
    special = np.array(
        [np.nan, np.copysign(np.nan, -1.0), 0.0, -0.0, np.inf, -np.inf,
         info.smallest_subnormal, -info.smallest_subnormal, info.max, -info.max],
        dtype=dtype,
    )
    x = rng.standard_normal(size).astype(dtype)
    pick = rng.random(size) < 0.5
    x[pick] = special[rng.integers(0, len(special), int(pick.sum()))]
    if x.size >= len(special):
        x.flat[: len(special)] = special  # every kind present at least once
    return x


def assert_relu_matches_reference(x):
    uint = np.dtype(f"u{x.dtype.itemsize}")  # compare bits: NaN != NaN, -0.0 == 0.0
    kept = x.copy()
    out, mask = F._relu_fw(x)
    ref = relu_reference(x)
    assert out.dtype == ref.dtype and out.shape == ref.shape and out.strides == ref.strides
    assert np.array_equal(out.view(uint), ref.view(uint))
    assert mask.dtype == np.bool_ and np.array_equal(mask, x > 0)
    g = np.random.default_rng(0).standard_normal(x.shape).astype(x.dtype)
    assert np.array_equal(F._relu_bw(g, mask).view(uint), (g * (x > 0)).view(uint))
    assert np.array_equal(x.view(uint), kept.view(uint))  # the input is not written


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", [1, 3, 7, 8, 15, 16, 17, 31, 33, 64, 67, 255, 1027])
def test_relu_keeps_the_where_value_contract(dtype, length):
    """``fmax(x, 0) + 0`` is bit for bit ``where(x > 0, x, 0)``: NaN -> +0,
    -0 -> +0, subnormals kept, at lengths that reach numpy's SIMD body and
    its scalar tail, on contiguous, strided and reversed views."""
    x = relu_edge_values(np.random.default_rng(length), length, dtype)
    for view in (x, x[::2], x[::-1], x[1:]):
        assert_relu_matches_reference(view)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_value_contract_holds_on_stacks_and_strided_views(dtype):
    x = relu_edge_values(np.random.default_rng(7), 4 * 9 * 6, dtype).reshape(4, 9, 6)
    for view in (x, x[:, ::2, 1:], x.transpose(2, 0, 1), np.asfortranarray(x)):
        assert_relu_matches_reference(view)


def test_hard_sigmoid_saturates():
    out = F.hard_sigmoid(Tensor([-10.0, 0.0, 10.0]))
    assert np.allclose(out.data, [0.0, 0.5, 1.0])


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(f64((5, 9), rng))
    out = F.softmax(x)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


def test_log_softmax_matches_log_of_softmax(rng):
    x = Tensor(f64((4, 6), rng))
    assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-6)


def test_softmax_grad(rng):
    x_data = f64((3, 5), rng)

    def run():
        return (F.softmax(Tensor(x_data, requires_grad=True)) ** 2).sum()

    x = Tensor(x_data, requires_grad=True)
    (F.softmax(x) ** 2).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data))


def test_log_softmax_grad(rng):
    x_data = f64((3, 5), rng)

    def run():
        return (F.log_softmax(Tensor(x_data, requires_grad=True)) * 0.3).sum()

    x = Tensor(x_data, requires_grad=True)
    (F.log_softmax(x) * 0.3).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data))


# ------------------------------------------------------------- linear
def _linear_case(fn, x_data, w_data, b_data, x_grad, grad_out):
    """Run ``fn`` (one of the two linear forms) twice through one weight and
    bias — the second call on the first's output where the widths allow, so
    gradients accumulate — and return everything the forms must agree on."""
    x = Tensor(x_data, requires_grad=x_grad)
    w = Tensor(w_data.copy(), requires_grad=True)
    b = None if b_data is None else Tensor(b_data.copy(), requires_grad=True)
    first = fn(x, w, b)
    second = fn(first if w_data.shape[0] == w_data.shape[1] else x, w, b)
    out = first + second
    out.backward(grad_out.copy())  # the tape adopts the array and adds into it
    return out.data, x.grad, w.grad, None if b is None else b.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize(
    "x_shape, w_shape, sliced",
    [
        ((5, 7), (7, 7), False),     # square: the second call consumes the first
        ((5, 7), (3, 7), False),
        ((5, 7), (3, 7), True),      # non-contiguous input
        ((2, 5, 7), (3, 7), False),  # 3-D input: the composed form, untouched
    ],
)
def test_linear_matches_composed_form_exactly(x_shape, w_shape, sliced, with_bias, x_grad, dtype, rng):
    """Not a tolerance: the one-node ``linear`` evaluates the composed form's
    expressions in its order, so every bit of the output and of the x, weight
    and bias gradients is the same — which is what lets pooled, fused and
    dedicated runs keep their pinned records."""
    if sliced:
        wide = rng.standard_normal((x_shape[0], 2 * x_shape[1])).astype(dtype)
        x_data = wide[:, ::2]
        assert not x_data.flags["C_CONTIGUOUS"]
    else:
        x_data = rng.standard_normal(x_shape).astype(dtype)
    w_data = rng.standard_normal(w_shape).astype(dtype)
    b_data = rng.standard_normal(w_shape[0]).astype(dtype) if with_bias else None
    grad_out = rng.standard_normal(x_shape[:-1] + w_shape[:1]).astype(dtype)
    got = _linear_case(F.linear, x_data, w_data, b_data, x_grad, grad_out)
    want = _linear_case(linear_reference, x_data, w_data, b_data, x_grad, grad_out)
    for name, g, r in zip(("out", "x.grad", "weight.grad", "bias.grad"), got, want):
        if r is None:
            assert g is None, name
        else:
            assert g.dtype == r.dtype and g.flags["C_CONTIGUOUS"] == r.flags["C_CONTIGUOUS"], name
            assert np.array_equal(g, r), name


def test_linear_mixed_dtypes_match_composed_form(rng):
    """A float64 bias over float32 operands: the gradient reaches the product
    in the product's dtype, as it did when the product had its own node."""
    x_data = rng.standard_normal((4, 6)).astype(np.float32)
    w_data = rng.standard_normal((3, 6)).astype(np.float32)
    b_data = rng.standard_normal(3)
    grad_out = rng.standard_normal((4, 3))
    got = _linear_case(F.linear, x_data, w_data, b_data, True, grad_out)
    want = _linear_case(linear_reference, x_data, w_data, b_data, True, grad_out)
    for g, r in zip(got, want):
        assert g.dtype == r.dtype and np.array_equal(g, r)


def _tape(root):
    """Every tensor reachable from ``root`` through the tape, split into
    nodes (have a backward) and leaves."""
    seen, stack, nodes, leaves = set(), [root], [], []
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        (nodes if t._backward is not None else leaves).append(t)
        stack.extend(t._prev)
    return nodes, leaves


def test_mlp_loss_tape_has_one_node_per_layer(rng):
    """Linear-ReLU-Linear-ReLU-Linear-CE is six tape nodes over the six
    parameters; the composed linear made it twelve."""
    model = build_model("mlp", in_features=8, num_classes=3, hidden=[5, 4])
    x = rng.standard_normal((4, 8)).astype(np.float32)
    loss = F.cross_entropy(model(Tensor(x)), np.array([0, 1, 2, 0]))
    nodes, leaves = _tape(loss)
    assert len(nodes) == 6
    assert {id(t) for t in leaves} == {id(p) for p in model.parameters()}


# ------------------------------------------------------------- convolution
_RTOL = {np.float32: 1e-5, np.float64: 1e-10}


def _check_conv(rng, dtype, x_shape, out_channels, kernel, stride, padding, groups, bias=True,
                x_grad=True, w_grad=True):
    """conv2d forward and every requested gradient against the direct loop."""
    kernel, stride, padding = F._pair(kernel), F._pair(stride), F._pair(padding)
    x_data = f64(x_shape, rng).astype(dtype)
    w_data = f64((out_channels, x_shape[1] // groups) + kernel, rng).astype(dtype)
    b_data = f64((out_channels,), rng).astype(dtype) if bias else None
    x = Tensor(x_data.copy(), requires_grad=x_grad)
    w = Tensor(w_data.copy(), requires_grad=w_grad)
    b = Tensor(b_data.copy(), requires_grad=True) if bias else None
    out = F.conv2d(x, w, b, stride, padding, groups)
    grad_out = f64(out.shape, rng).astype(dtype)
    out.backward(grad_out)
    ref_out, ref_gx, ref_gw, ref_gb = conv2d_reference(
        x_data, w_data, b_data, stride, padding, groups, grad_out
    )
    rtol = _RTOL[dtype]
    assert out.data.dtype == dtype and out.data.flags.c_contiguous
    assert_matches(out.data, ref_out, rtol)
    for tensor, ref, wanted in ((x, ref_gx, x_grad), (w, ref_gw, w_grad), (b, ref_gb, bias)):
        if wanted:
            assert tensor.grad.dtype == dtype
            assert_matches(tensor.grad, ref, rtol)
        elif tensor is not None:
            assert tensor.grad is None
    # the inputs are read, never written
    np.testing.assert_array_equal(x.data, x_data)
    np.testing.assert_array_equal(w.data, w_data)
    return x


@pytest.mark.parametrize(
    "stride,padding",
    [(1, 0), (1, 1), (2, 1), ((1, 2), (2, 1)), (1, 2), (2, 0), (2, 2), (3, 0), (3, 1), (3, 2)],
)
def test_conv2d_matches_direct_computation(stride, padding, rng):
    # kernel {1, 3, 5} on 4 channels of a non-square input: plain, grouped,
    # depthwise, depthwise with a depth multiplier of 2 — with and without bias
    for dtype in (np.float32, np.float64):
        for kernel in (1, 3, 5):
            for groups, out_channels in ((1, 6), (2, 6), (4, 4), (4, 8)):
                for bias in (True, False):
                    _check_conv(rng, dtype, (2, 4, 7, 6), out_channels, kernel, stride, padding,
                                groups, bias)


@pytest.mark.parametrize("stride,padding", [((2, 1), (0, 2)), ((3, 1), (1, 0)), ((1, 1), (2, 0))])
def test_conv2d_rectangular_kernel_stride_and_padding(stride, padding, rng):
    _check_conv(rng, np.float64, (2, 3, 6, 7), 4, (3, 2), stride, padding, 1)


# (x_shape, kernel, stride, padding) -> positions of one image in the GEMM
_FOLD_EDGES = [
    ((3, 4, 1, 1), 3, 1, 1),  # OH*OW = 1: the kernel covers the whole padded input
    ((3, 4, 2, 2), 3, 1, 1),  # 4
    ((3, 4, 5, 1), 3, 1, 1),  # 5
    ((3, 4, 4, 4), 3, 1, 1),  # pitched rows: (4-1)*6 + 4 = 22 positions, folded
    ((3, 4, 5, 5), 3, 1, 1),  # (5-1)*7 + 5 = 33, per-sample
    ((3, 4, 9, 9), 3, 2, 1),  # strided: 5*5 = 25, folded
    ((3, 4, 11, 11), 3, 2, 1),  # 6*6 = 36, per-sample
    ((3, 4, 8, 4), 1, 1, 0),  # 1x1: 32 folded ...
    ((3, 4, 8, 5), 1, 1, 0),  # ... 40 is the no-copy path
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("x_shape,kernel,stride,padding", _FOLD_EDGES)
def test_conv2d_both_sides_of_the_fold(x_shape, kernel, stride, padding, dtype, rng):
    for groups in (1, 2):
        _check_conv(rng, dtype, x_shape, 6, kernel, stride, padding, groups)


def test_conv2d_fold_edges_straddle_the_threshold():
    # the cases above must keep exercising both arrangements if the rule moves
    folded = set()
    for (_, _, h, w), k, s, p in _FOLD_EDGES:
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        folded.add((s == 1, F._arrangement(oh, ow, w + 2 * p, s == 1)[1]))
    assert folded == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("x_shape,kernel,stride,padding", [
    ((2, 3, 8, 8), 3, 2, 0),  # (8 - 3) % 2 = 1: last row and column uncovered
    ((2, 3, 9, 7), 3, 3, 1),  # (9 + 2 - 3) % 3 = 2, (7 + 2 - 3) % 3 = 0
    ((2, 3, 6, 6), 1, 2, 0),  # 1x1 stride 2 reads every other pixel only
])
def test_conv2d_uncovered_border_gets_zero_gradient(x_shape, kernel, stride, padding, rng):
    x = _check_conv(rng, np.float64, x_shape, 4, kernel, stride, padding, 1)
    h = x_shape[2]
    rows_left = (h + 2 * padding - kernel) % stride - padding
    assert rows_left > 0
    assert np.all(x.grad[:, :, h - rows_left:, :] == 0.0)
    if kernel == 1:
        assert np.all(x.grad[:, :, 1::2, :] == 0.0) and np.all(x.grad[:, :, :, 1::2] == 0.0)


@pytest.mark.parametrize("kernel,padding", [(1, 1), (1, 2), (3, 3), (3, (2, 4)), ((1, 3), (1, 1))])
def test_conv2d_padding_beyond_the_kernel(kernel, padding, rng):
    # padding > kernel - 1: some outputs see only zeros, and the
    # flipped-kernel input gradient (which pads by kernel - 1 - padding) declines
    for dtype in (np.float32, np.float64):
        _check_conv(rng, dtype, (2, 4, 4, 5), 6, kernel, 1, padding, 2)


def test_conv2d_pointwise_path_does_not_alias(rng):
    # 1x1 stride 1 unpadded uses x itself as the column matrix
    x_data = f64((2, 4, 7, 6), rng)
    x = Tensor(x_data.copy(), requires_grad=True)
    w = Tensor(f64((5, 4, 1, 1), rng), requires_grad=True)
    out = F.conv2d(x, w)
    assert not np.shares_memory(out.data, x.data)
    grad_out = f64(out.shape, rng)
    kept = grad_out.copy()
    out.backward(grad_out)
    assert not np.shares_memory(x.grad, grad_out) and not np.shares_memory(x.grad, x.data)
    assert not np.shares_memory(w.grad, w.data)
    x.grad += 1.0  # what an optimizer or a second accumulation does
    w.grad += 1.0
    np.testing.assert_array_equal(x.data, x_data)
    np.testing.assert_array_equal(grad_out, kept)


@pytest.mark.parametrize("x_grad,w_grad", [(True, False), (False, True)])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_partial_requires_grad(stride, x_grad, w_grad, rng):
    for x_shape in ((2, 4, 2, 2), (2, 4, 7, 6)):
        _check_conv(rng, np.float64, x_shape, 6, 3, stride, 1, 2, x_grad=x_grad, w_grad=w_grad)


def test_conv2d_non_contiguous_input(rng):
    # the pitched columns assume adjacent rows: a strided view must be
    # gathered first, not read through
    base = f64((7, 2, 4, 9), rng)
    x_data = base.transpose(1, 2, 0, 3)[:, :, :, ::2]  # (2, 4, 7, 5), no axis contiguous
    assert not x_data.flags.c_contiguous
    w_data = f64((6, 4, 3, 3), rng)
    for stride, padding in ((1, 0), (1, 1), (2, 0)):
        x, w = Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True)
        out = F.conv2d(x, w, None, stride, padding)
        grad_out = f64(out.shape, rng)
        out.backward(grad_out)
        ref = conv2d_reference(x_data, w_data, None, (stride,) * 2, (padding,) * 2, 1, grad_out)
        for got, want in zip((out.data, x.grad, w.grad), ref):
            assert_matches(got, want, 1e-10)


@pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (3, 1, 3)])
def test_conv2d_empty_batch(kernel, stride, padding):
    # a drained loader may hand over zero samples: empty output, zero gradients
    for size in (6, 3):  # per-sample and folded
        x = Tensor(np.zeros((0, 4, size, size), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((6, 2, kernel, kernel), dtype=np.float32), requires_grad=True)
        out = F.conv2d(x, w, None, stride, padding, groups=2)
        assert out.shape[:2] == (0, 6)
        out.backward(np.zeros(out.shape, dtype=np.float32))
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape and not w.grad.any()


def test_conv2d_no_grad_eval_path(rng):
    x_data, w_data = f64((2, 4, 6, 6), rng), f64((8, 1, 3, 3), rng)
    x, w = Tensor(x_data), Tensor(w_data, requires_grad=True)
    with no_grad():
        out = F.conv2d(x, w, None, 1, 1, groups=4)
    assert not out.requires_grad and out._backward is None and out._prev == ()
    assert_matches(out.data, conv2d_reference(x_data, w_data, None, (1, 1), (1, 1), 4), 1e-10)


def test_conv2d_grads(rng):
    x_data = f64((2, 3, 5, 5), rng)
    w_data = f64((4, 3, 3, 3), rng)
    b_data = f64((4,), rng)

    def run():
        return (
            F.conv2d(
                Tensor(x_data, requires_grad=True),
                Tensor(w_data, requires_grad=True),
                Tensor(b_data, requires_grad=True),
                stride=2,
                padding=1,
            )
            * 0.7
        ).sum()

    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (F.conv2d(x, w, b, stride=2, padding=1) * 0.7).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data), atol=1e-5)
    assert_grad_close(w.grad, numerical_grad(lambda: run().item(), w_data), atol=1e-5)
    assert_grad_close(b.grad, numerical_grad(lambda: run().item(), b_data), atol=1e-5)


def test_depthwise_conv_grads(rng):
    x_data = f64((2, 4, 5, 5), rng)
    w_data = f64((4, 1, 3, 3), rng)

    def run():
        return F.conv2d(
            Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True),
            None, 1, 1, groups=4,
        ).sum()

    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    F.conv2d(x, w, None, 1, 1, groups=4).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data), atol=1e-5)
    assert_grad_close(w.grad, numerical_grad(lambda: run().item(), w_data), atol=1e-5)


def test_grouped_conv_grads(rng):
    x_data = f64((1, 4, 4, 4), rng)
    w_data = f64((6, 2, 3, 3), rng)  # groups=2: 4 in -> 6 out

    def run():
        return F.conv2d(
            Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True),
            None, 1, 1, groups=2,
        ).sum()

    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    F.conv2d(x, w, None, 1, 1, groups=2).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data), atol=1e-5)
    assert_grad_close(w.grad, numerical_grad(lambda: run().item(), w_data), atol=1e-5)


def test_depth_multiplier_conv_grads(rng):
    # groups == in_channels with out_channels = 2 * in_channels: each input
    # channel feeds two filters (channel f reads input f // 2, as in torch)
    x_data = f64((2, 3, 5, 4), rng)
    w_data = f64((6, 1, 3, 3), rng)

    def run():
        return (
            F.conv2d(Tensor(x_data, requires_grad=True), Tensor(w_data, requires_grad=True),
                     None, 1, 1, groups=3) ** 2
        ).sum()

    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    out = F.conv2d(x, w, None, 1, 1, groups=3)
    assert out.shape == (2, 6, 5, 4)
    for f in range(6):
        single = F.conv2d(Tensor(x_data[:, f // 2 : f // 2 + 1]), Tensor(w_data[f : f + 1]), None, 1, 1)
        assert np.allclose(out.data[:, f], single.data[:, 0], atol=1e-12)
    (out ** 2).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data), atol=1e-5)
    assert_grad_close(w.grad, numerical_grad(lambda: run().item(), w_data), atol=1e-5)


def test_conv2d_shape_validation(monkeypatch):
    # every shape error is raised before any compute
    def no_compute(*args, **kwargs):
        raise AssertionError("conv2d computed before validating its shapes")

    monkeypatch.setattr(F, "_pad2d", no_compute)
    monkeypatch.setattr(F, "_columns", no_compute)
    with pytest.raises(ValueError, match="channel mismatch"):
        F.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))
    with pytest.raises(ValueError, match="channel mismatch"):  # depthwise weight, wrong groups
        F.conv2d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((4, 1, 3, 3))), groups=2)
    with pytest.raises(ValueError, match="out_channels 3 not divisible by groups 2"):
        F.conv2d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))), groups=2)
    with pytest.raises(ValueError, match="out_channels 6 not divisible by groups 4"):
        F.conv2d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((6, 1, 3, 3))), groups=4)
    with pytest.raises(ValueError, match="exceeds the padded input"):
        F.conv2d(Tensor(np.zeros((1, 3, 2, 6))), Tensor(np.zeros((2, 3, 3, 3))))
    with pytest.raises(ValueError, match="exceeds the padded input"):
        F.conv2d(Tensor(np.zeros((1, 3, 6, 2))), Tensor(np.zeros((2, 3, 3, 5))), padding=1, stride=2)


# ------------------------------------------------------------- pooling
def test_max_pool_values(rng):
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = F.max_pool2d(Tensor(x), 2).data
    assert np.allclose(out[0, 0], [[5, 7], [13, 15]])


def test_max_pool_grad(rng):
    x_data = f64((2, 3, 6, 6), rng)

    def run():
        return (F.max_pool2d(Tensor(x_data, requires_grad=True), 2) * 1.5).sum()

    x = Tensor(x_data, requires_grad=True)
    (F.max_pool2d(x, 2) * 1.5).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data), atol=1e-5)


def test_max_pool_overlapping_stride_grad(rng):
    x_data = f64((1, 2, 5, 5), rng)

    def run():
        return F.max_pool2d(Tensor(x_data, requires_grad=True), 3, stride=1).sum()

    x = Tensor(x_data, requires_grad=True)
    F.max_pool2d(x, 3, stride=1).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data), atol=1e-5)


def test_avg_pool_grad(rng):
    x_data = f64((2, 2, 4, 4), rng)

    def run():
        return (F.avg_pool2d(Tensor(x_data, requires_grad=True), 2) * 2.0).sum()

    x = Tensor(x_data, requires_grad=True)
    (F.avg_pool2d(x, 2) * 2.0).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data))


def test_adaptive_avg_pool(rng):
    x = Tensor(f64((2, 3, 5, 5), rng))
    out = F.adaptive_avg_pool2d(x)
    assert out.shape == (2, 3, 1, 1)
    assert np.allclose(out.data[:, :, 0, 0], x.data.mean(axis=(2, 3)))


# ------------------------------------------------------------- batch norm
def test_batch_norm_normalizes(rng):
    x = Tensor(f64((16, 4, 3, 3), rng) * 5 + 2)
    w, b = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
    rm, rv = np.zeros(4), np.ones(4)
    out = F.batch_norm(x, w, b, rm, rv, training=True)
    assert np.abs(out.data.mean(axis=(0, 2, 3))).max() < 1e-5
    assert np.abs(out.data.var(axis=(0, 2, 3)) - 1).max() < 1e-3


def test_batch_norm_updates_running_stats(rng):
    x = Tensor(f64((32, 2, 4, 4), rng) + 3.0)
    w, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    rm, rv = np.zeros(2), np.ones(2)
    F.batch_norm(x, w, b, rm, rv, training=True, momentum=1.0)
    assert np.allclose(rm, x.data.mean(axis=(0, 2, 3)), atol=1e-5)


def test_batch_norm_eval_uses_running_stats(rng):
    x = Tensor(f64((8, 2, 2, 2), rng))
    w, b = Tensor(np.ones(2), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
    rm, rv = np.full(2, 1.0), np.full(2, 4.0)
    out = F.batch_norm(x, w, b, rm, rv, training=False)
    assert np.allclose(out.data, (x.data - 1.0) / np.sqrt(4.0 + 1e-5), atol=1e-5)


def test_batch_norm_grads_training(rng):
    x_data = f64((6, 3, 2, 2), rng)
    w_data = f64((3,), rng)
    b_data = f64((3,), rng)

    def run():
        rm, rv = np.zeros(3), np.ones(3)
        return (
            F.batch_norm(
                Tensor(x_data, requires_grad=True),
                Tensor(w_data, requires_grad=True),
                Tensor(b_data, requires_grad=True),
                rm, rv, training=True,
            )
            ** 2
        ).sum()

    rm, rv = np.zeros(3), np.ones(3)
    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (F.batch_norm(x, w, b, rm, rv, training=True) ** 2).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data), atol=1e-4)
    assert_grad_close(w.grad, numerical_grad(lambda: run().item(), w_data), atol=1e-4)
    assert_grad_close(b.grad, numerical_grad(lambda: run().item(), b_data), atol=1e-4)


def test_batch_norm_2d_input(rng):
    x = Tensor(f64((10, 5), rng))
    w, b = Tensor(np.ones(5), requires_grad=True), Tensor(np.zeros(5), requires_grad=True)
    out = F.batch_norm(x, w, b, np.zeros(5), np.ones(5), training=True)
    assert np.abs(out.data.mean(axis=0)).max() < 1e-6


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(6, 3, 2, 2), (5, 4), (1, 3, 1, 1), (1, 4), (2, 3, 1, 2)])
def test_batch_norm_grads_all_paths(shape, training, rng):
    # 2-D and 4-D, both modes, down to one value per channel (m = 1: the
    # batch variance is 0 and training output is the bias alone)
    c = shape[1]
    data = {"x": f64(shape, rng) * 2 + 0.5, "w": f64((c,), rng), "b": f64((c,), rng)}
    coeff = f64(shape, rng)

    def loss(x, w, b):
        rm, rv = np.linspace(-0.5, 0.5, c), np.linspace(0.5, 2.0, c)
        out = F.batch_norm(x, w, b, rm, rv, training=training)
        return (out * out * coeff).sum() + (out * coeff).sum()

    def run():
        return loss(*(Tensor(data[k], requires_grad=True) for k in "xwb")).item()

    tensors = {k: Tensor(data[k], requires_grad=True) for k in "xwb"}
    loss(*tensors.values()).backward()
    for key, tensor in tensors.items():
        assert tensor.grad.shape == data[key].shape
        assert_grad_close(tensor.grad, numerical_grad(run, data[key]), atol=1e-4)
    if training and np.prod(shape) == c:
        assert np.all(tensors["x"].grad == 0.0)


def test_batch_norm_training_matches_numpy_moments(rng):
    # one centering pass feeds mean, variance and x_hat: same values as the
    # separate np.mean / np.var calls, and the unbiased running variance
    x = (f64((8, 3, 4, 5), rng) * 3 + 1).astype(np.float32)
    w, b = Tensor(f64((3,), rng).astype(np.float32)), Tensor(f64((3,), rng).astype(np.float32))
    rm, rv = np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32)
    out = F.batch_norm(Tensor(x.copy()), w, b, rm, rv, training=True, momentum=1.0)
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    np.testing.assert_array_equal(rm, mean)
    np.testing.assert_allclose(rv, var * (160 / 159), rtol=1e-6)
    expected = (x - mean.reshape(1, -1, 1, 1)) / np.sqrt(var + 1e-5).reshape(1, -1, 1, 1)
    expected = expected * w.data.reshape(1, -1, 1, 1) + b.data.reshape(1, -1, 1, 1)
    assert out.data.dtype == np.float32
    np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)


# ------------------------------------------------------------- dropout
def test_dropout_eval_is_identity(rng):
    x = Tensor(f64((4, 4), rng))
    assert F.dropout(x, 0.5, training=False) is x


def test_dropout_preserves_expectation(rng):
    x = Tensor(np.ones((2000,)))
    out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
    assert abs(out.data.mean() - 1.0) < 0.1
    kept = out.data != 0
    assert np.allclose(out.data[kept], 2.0)


def test_dropout_invalid_p():
    with pytest.raises(ValueError):
        F.dropout(Tensor([1.0]), 1.0, training=True)


# ------------------------------------------------------------- losses
def test_cross_entropy_matches_manual(rng):
    logits_data = f64((5, 4), rng)
    y = np.array([0, 1, 2, 3, 1])
    loss = F.cross_entropy(Tensor(logits_data), y).item()
    shifted = logits_data - logits_data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert loss == pytest.approx(-log_probs[np.arange(5), y].mean(), rel=1e-6)


def test_cross_entropy_grad(rng):
    logits_data = f64((6, 5), rng)
    y = np.array([0, 4, 2, 1, 3, 2])

    def run():
        return F.cross_entropy(Tensor(logits_data, requires_grad=True), y)

    t = Tensor(logits_data, requires_grad=True)
    F.cross_entropy(t, y).backward()
    assert_grad_close(t.grad, numerical_grad(lambda: run().item(), logits_data))


def test_cross_entropy_sum_reduction(rng):
    logits = Tensor(f64((4, 3), rng))
    y = np.array([0, 1, 2, 0])
    mean = F.cross_entropy(logits, y, "mean").item()
    total = F.cross_entropy(logits, y, "sum").item()
    assert total == pytest.approx(4 * mean, rel=1e-6)


def test_nll_loss_pairs_with_log_softmax(rng):
    logits = Tensor(f64((4, 3), rng), requires_grad=True)
    y = np.array([2, 0, 1, 2])
    ce = F.cross_entropy(logits, y).item()
    nll = F.nll_loss(F.log_softmax(logits), y).item()
    assert ce == pytest.approx(nll, rel=1e-6)


def test_mse_loss_grad(rng):
    pred_data = f64((4, 3), rng)
    target = f64((4, 3), rng)

    def run():
        return F.mse_loss(Tensor(pred_data, requires_grad=True), target)

    p = Tensor(pred_data, requires_grad=True)
    F.mse_loss(p, target).backward()
    assert_grad_close(p.grad, numerical_grad(lambda: run().item(), pred_data))
