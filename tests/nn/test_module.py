import numpy as np
import pytest

from repro.nn.layers import BatchNorm2d, Dropout, Linear, ReLU, Sequential
from repro.nn.module import Module
from repro.nn.tensor import Tensor


def small_net(rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 3, rng=rng))


def test_parameter_discovery():
    net = small_net()
    names = [n for n, _ in net.named_parameters()]
    assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]


def test_nested_module_names():
    class Outer(Module):
        def __init__(self):
            super().__init__()
            self.inner = small_net()
            self.head = Linear(3, 2, rng=np.random.default_rng(1))

    names = [n for n, _ in Outer().named_parameters()]
    assert "inner.0.weight" in names and "head.bias" in names


def test_state_dict_roundtrip():
    a, b = small_net(np.random.default_rng(1)), small_net(np.random.default_rng(2))
    state = a.state_dict()
    b.load_state_dict(state)
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_state_dict_is_a_copy():
    net = small_net()
    state = net.state_dict()
    state["0.weight"][...] = 0
    assert not np.allclose(net._modules["0"].weight.data, 0)


def test_load_state_dict_strict_mismatch():
    net = small_net()
    state = net.state_dict()
    del state["0.bias"]
    with pytest.raises(KeyError, match="missing"):
        net.load_state_dict(state)
    net.load_state_dict(state, strict=False)  # non-strict tolerates


def test_load_state_dict_shape_mismatch():
    net = small_net()
    state = net.state_dict()
    state["0.weight"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        net.load_state_dict(state)


def test_buffers_in_state_dict():
    bn = BatchNorm2d(4)
    state = bn.state_dict()
    assert "running_mean" in state and "num_batches_tracked" in state
    state["running_mean"][:] = 7.0
    bn.load_state_dict(state)
    assert np.allclose(bn._buffers["running_mean"], 7.0)


def test_train_eval_propagates():
    net = Sequential(Dropout(0.5), small_net())
    net.eval()
    assert all(not m.training for m in net.modules())
    net.train()
    assert all(m.training for m in net.modules())


def test_zero_grad():
    net = small_net()
    out = net(Tensor(np.ones((2, 4), dtype=np.float32)))
    out.sum().backward()
    assert any(p.grad is not None for p in net.parameters())
    net.zero_grad()
    assert all(p.grad is None for p in net.parameters())


def test_num_parameters():
    net = small_net()
    assert net.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3


def test_attribute_reassignment_replaces_module():
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.layer = Linear(2, 2, rng=np.random.default_rng(0))

    net = Net()
    net.layer = Linear(2, 3, rng=np.random.default_rng(1))
    assert net.layer.out_features == 3
    assert len(list(net.named_parameters())) == 2


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        _ = small_net().nonexistent


def test_apply_visits_all_modules():
    visited = []
    small_net().apply(lambda m: visited.append(type(m).__name__))
    assert "Linear" in visited and "Sequential" in visited


def test_sequential_getitem_len_iter():
    net = small_net()
    assert len(net) == 3
    assert isinstance(net[0], Linear)
    assert [type(m).__name__ for m in net] == ["Linear", "ReLU", "Linear"]


# ------------------------------------------------------------- name index
def _walked_names(net):
    """What the index must agree with: a fresh walk of the tree."""
    return [n for n, _ in net.named_parameters()] + [n for n, _ in net.named_buffers()]


class _Nested(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.stem = Linear(4, 4, rng=rng)
        self.blocks = Sequential(Sequential(Linear(4, 4, rng=rng), BatchNorm2d(4)))
        self.head = Linear(4, 2, rng=rng)


def test_index_sees_every_structural_change():
    """``parameters``/``state_dict``/``load_state_dict`` answer from an index
    built on first use; each kind of edit, at any depth, must reach it."""
    net = _Nested()
    assert list(net.state_dict()) == _walked_names(net)  # index is now built

    def check():
        assert list(net.state_dict()) == _walked_names(net)
        assert [id(p) for p in net.parameters()] == [id(p) for _, p in net.named_parameters()]

    # replace a Parameter two levels down: same name, another tensor
    old = net.blocks[0][0].weight
    net.blocks[0][0].weight = type(old)(np.full((4, 4), 3.0, dtype=np.float32))
    check()
    assert np.all(net.state_dict()["blocks.0.0.weight"] == 3.0)
    net.load_state_dict({"blocks.0.0.weight": np.ones((4, 4), dtype=np.float32)}, strict=False)
    assert np.all(net.blocks[0][0].weight.data == 1.0) and np.all(old.data != 1.0)

    # overwrite a Parameter with a plain value (a bias switched off)
    net.head.bias = None
    check()
    assert "head.bias" not in net.state_dict()

    # add a child, then delete it
    net.extra = Linear(2, 2, rng=np.random.default_rng(1))
    check()
    assert "extra.weight" in net.state_dict()
    del net.extra
    check()
    assert "extra.weight" not in net.state_dict() and not hasattr(net, "extra")

    # delete a parameter and a buffer
    del net.stem.bias
    del net.blocks[0][1].num_batches_tracked
    check()
    assert "stem.bias" not in net.state_dict()
    assert "blocks.0.1.num_batches_tracked" not in net.state_dict()

    # register a buffer on a grandchild
    net.blocks[0][0].register_buffer("calls", np.zeros((), dtype=np.int64))
    check()
    net.load_state_dict({"blocks.0.0.calls": np.asarray(5)}, strict=False)
    assert int(net.blocks[0][0]._buffers["calls"]) == 5

    # grow a container by one child
    net.blocks.add_module("1", Linear(4, 4, rng=np.random.default_rng(2)))
    check()
    assert "blocks.1.weight" in net.state_dict()

    # a plain attribute still deletes, and an unknown one still raises
    net.note = "x"
    del net.note
    with pytest.raises(AttributeError):
        del net.note


def test_index_reads_buffers_through_their_owner():
    """BatchNorm replaces its running-stat arrays; the index must hand out
    and load into the array the module holds now."""
    bn = BatchNorm2d(3)
    bn.state_dict()
    bn._buffers["running_mean"] = np.full(3, 2.0, dtype=np.float32)
    assert np.all(bn.state_dict()["running_mean"] == 2.0)
    bn.load_state_dict({"running_mean": np.full(3, 4.0, dtype=np.float32)}, strict=False)
    assert np.all(bn._buffers["running_mean"] == 4.0)


def test_strictness_is_unchanged_by_the_index():
    net = small_net()
    full = net.state_dict()
    partial = {k: v for k, v in full.items() if k != "2.bias"}
    with pytest.raises(KeyError, match="missing=\\['2.bias'\\]"):
        net.load_state_dict(partial)
    with pytest.raises(KeyError, match="unexpected=\\['ghost'\\]"):
        net.load_state_dict({**full, "ghost": np.zeros(1)})
    net.load_state_dict({**partial, "ghost": np.zeros(1)}, strict=False)  # both tolerated
    with pytest.raises(ValueError, match="shape mismatch"):
        net.load_state_dict({"0.weight": np.zeros((2, 2), dtype=np.float32)}, strict=False)
    bn = BatchNorm2d(4)
    with pytest.raises(ValueError, match="shape mismatch for buffer"):
        bn.load_state_dict({"running_var": np.zeros(5, dtype=np.float32)}, strict=False)


def test_index_survives_deepcopy_independently():
    import copy

    net = small_net()
    net.state_dict()
    twin = copy.deepcopy(net)
    twin.add_module("3", Linear(3, 3, rng=np.random.default_rng(4)))
    assert "3.weight" in twin.state_dict() and "3.weight" not in net.state_dict()
    twin.load_state_dict({"0.weight": np.zeros((8, 4), dtype=np.float32)}, strict=False)
    assert np.all(twin[0].weight.data == 0) and not np.all(net[0].weight.data == 0)
