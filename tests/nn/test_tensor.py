import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad, stack
from tests.nn.gradcheck import assert_grad_close, numerical_grad


def f64(shape, rng):
    return rng.standard_normal(shape)  # float64 for tight gradchecks


# ----------------------------------------------------------- basic mechanics
def test_scalar_backward():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    y = (x * x).sum()
    y.backward()
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_accumulates_across_uses():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3 + x * 4  # x used twice
    y.sum().backward()
    assert np.allclose(x.grad, [7.0])


def test_grad_not_tracked_without_flag():
    x = Tensor([1.0])
    y = x * 2
    assert not y.requires_grad
    with pytest.raises(RuntimeError):
        y.backward()


def test_no_grad_context():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        assert not is_grad_enabled()
        y = x * 2
    assert not y.requires_grad
    assert is_grad_enabled()


def test_backward_requires_scalar_or_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError, match="non-scalar"):
        (x * 2).backward()
    (x * 2).backward(np.ones(2))
    assert np.allclose(x.grad, [2.0, 2.0])


def test_detach_and_clone():
    x = Tensor([1.0], requires_grad=True)
    d = x.detach()
    assert not d.requires_grad
    c = x.clone()
    (c * 3).sum().backward()
    assert np.allclose(x.grad, [3.0])


def test_int_input_cast_to_float32():
    assert Tensor([1, 2, 3]).dtype == np.float32


def test_float64_preserved():
    assert Tensor(np.zeros(3)).dtype == np.float64


def test_scalar_operand_keeps_float32():
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    assert (x * 0.5).dtype == np.float32
    assert (x + 1).dtype == np.float32


# ----------------------------------------------------------- op gradients
@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / (b + 2.5),
        lambda a, b: (a * b) + (a - b) * 0.5,
    ],
)
def test_elementwise_binary_grads(op, rng):
    a_data, b_data = f64((3, 4), rng), f64((3, 4), rng)

    def run():
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        return op(a, b).sum()

    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    op(a, b).sum().backward()
    assert_grad_close(a.grad, numerical_grad(lambda: run().item(), a_data))
    assert_grad_close(b.grad, numerical_grad(lambda: run().item(), b_data))


def test_broadcast_grads(rng):
    a_data = f64((3, 4), rng)
    b_data = f64((4,), rng)

    def run():
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        return (a * b + b).sum()

    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a * b + b).sum().backward()
    assert a.grad.shape == a_data.shape
    assert b.grad.shape == b_data.shape
    assert_grad_close(b.grad, numerical_grad(lambda: run().item(), b_data))


@pytest.mark.parametrize(
    "unary",
    [
        lambda x: x.exp(),
        lambda x: (x * x + 1.0).log(),
        lambda x: (x * x + 0.5).sqrt(),
        lambda x: x.abs(),
        lambda x: x**3,
        lambda x: -x,
    ],
)
def test_unary_grads(unary, rng):
    x_data = f64((2, 5), rng) + 0.1  # avoid |x| kink at 0

    def run():
        return unary(Tensor(x_data, requires_grad=True)).sum()

    x = Tensor(x_data, requires_grad=True)
    unary(x).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data), atol=1e-5)


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
def test_sum_mean_grads(axis, keepdims, rng):
    x_data = f64((3, 4), rng)

    def run_sum():
        return (Tensor(x_data, requires_grad=True).sum(axis=axis, keepdims=keepdims) * 2.0).sum()

    x = Tensor(x_data, requires_grad=True)
    (x.sum(axis=axis, keepdims=keepdims) * 2.0).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run_sum().item(), x_data))

    def run_mean():
        return (Tensor(x_data, requires_grad=True).mean(axis=axis, keepdims=keepdims) * 2.0).sum()

    x2 = Tensor(x_data, requires_grad=True)
    (x2.mean(axis=axis, keepdims=keepdims) * 2.0).sum().backward()
    assert_grad_close(x2.grad, numerical_grad(lambda: run_mean().item(), x_data))


def test_max_grad(rng):
    x_data = f64((4, 5), rng)
    x = Tensor(x_data, requires_grad=True)
    x.max(axis=1).sum().backward()

    def run():
        return Tensor(x_data, requires_grad=True).max(axis=1).sum()

    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data))


def test_matmul_grads(rng):
    a_data, b_data = f64((3, 4), rng), f64((4, 2), rng)

    def run():
        return (Tensor(a_data, requires_grad=True) @ Tensor(b_data, requires_grad=True)).sum()

    a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
    (a @ b).sum().backward()
    assert_grad_close(a.grad, numerical_grad(lambda: run().item(), a_data))
    assert_grad_close(b.grad, numerical_grad(lambda: run().item(), b_data))


def test_batched_matmul_grads(rng):
    a_data, b_data = f64((2, 3, 4), rng), f64((2, 4, 2), rng)

    def run():
        return (Tensor(a_data, requires_grad=True) @ Tensor(b_data, requires_grad=True)).sum()

    a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
    (a @ b).sum().backward()
    assert_grad_close(a.grad, numerical_grad(lambda: run().item(), a_data))
    assert_grad_close(b.grad, numerical_grad(lambda: run().item(), b_data))


def test_reshape_transpose_getitem_grads(rng):
    x_data = f64((4, 6), rng)

    def run():
        t = Tensor(x_data, requires_grad=True)
        return (t.reshape(2, 12).T[3:7] * 2.0).sum()

    x = Tensor(x_data, requires_grad=True)
    (x.reshape(2, 12).T[3:7] * 2.0).sum().backward()
    assert_grad_close(x.grad, numerical_grad(lambda: run().item(), x_data))


def test_stack_grads(rng):
    a_data, b_data = f64((2, 3), rng), f64((2, 3), rng)
    weights = f64((2, 2, 3), rng)

    def run():
        a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        return (stack([a, b]) * weights).sum()

    a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
    s = stack([a, b])
    assert s.shape == (2, 2, 3)
    (s * weights).sum().backward()
    assert_grad_close(a.grad, numerical_grad(lambda: run().item(), a_data))
    assert_grad_close(b.grad, numerical_grad(lambda: run().item(), b_data))


# ----------------------------------------------------------- property-based
@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=4),
               elements=st.floats(-10, 10)),
)
def test_sum_grad_is_ones(x):
    t = Tensor(x.copy(), requires_grad=True)
    t.sum().backward()
    assert np.allclose(t.grad, np.ones_like(x))


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
               elements=st.floats(-5, 5)),
)
def test_add_self_grad_is_two(x):
    t = Tensor(x.copy(), requires_grad=True)
    (t + t).sum().backward()
    assert np.allclose(t.grad, 2 * np.ones_like(x))
