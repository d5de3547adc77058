"""Module system: registration, traversal, modes, serialization."""

import numpy as np
import pytest

from repro.nn import Linear, Module, ModuleList, Parameter, Tensor


class TinyNet(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(3, 4, rng=rng)
        self.fc2 = Linear(4, 2, rng=rng)
        self.free = Parameter(np.zeros(5))
        self.register_buffer("stat", np.arange(3.0))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


@pytest.fixture
def net(rng):
    return TinyNet(np.random.default_rng(0))


class TestRegistration:
    def test_named_parameters_walks_tree(self, net):
        names = {name for name, _ in net.named_parameters()}
        assert names == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
                         "free"}

    def test_num_parameters(self, net):
        assert net.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2 + 5

    def test_named_modules(self, net):
        names = {name for name, _ in net.named_modules()}
        assert names == {"", "fc1", "fc2"}

    def test_buffers_not_parameters(self, net):
        assert all(name != "stat" for name, _ in net.named_parameters())
        np.testing.assert_array_equal(net.stat, np.arange(3.0))


class TestModes:
    def test_train_eval_propagates(self, net):
        net.eval()
        assert not any(m.training for _, m in net.named_modules())
        net.train()
        assert all(m.training for _, m in net.named_modules())

    def test_zero_grad(self, net):
        out = net(Tensor(np.ones((2, 3))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_roundtrip(self, net, rng):
        state = net.state_dict()
        clone = TinyNet(np.random.default_rng(99))
        before = clone.fc1.weight.data.copy()
        clone.load_state_dict(state)
        assert not np.allclose(clone.fc1.weight.data, before)
        np.testing.assert_array_equal(clone.fc1.weight.data,
                                      net.fc1.weight.data)
        np.testing.assert_array_equal(clone.stat, net.stat)

    def test_state_dict_is_a_copy(self, net):
        state = net.state_dict()
        state["fc1.weight"][...] = 0.0
        assert not np.allclose(net.fc1.weight.data, 0.0)

    def test_missing_key_raises(self, net):
        state = net.state_dict()
        del state["fc1.weight"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self, net):
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_save_load_npz(self, net, tmp_path):
        path = str(tmp_path / "model.npz")
        net.save(path)
        clone = TinyNet(np.random.default_rng(5))
        clone.load(path)
        np.testing.assert_array_equal(clone.fc2.bias.data, net.fc2.bias.data)

    def test_buffer_roundtrip(self, net):
        net.stat[...] = [9.0, 8.0, 7.0]
        state = net.state_dict()
        clone = TinyNet(np.random.default_rng(1))
        clone.load_state_dict(state)
        np.testing.assert_array_equal(clone.stat, [9.0, 8.0, 7.0])


class TestContainers:
    def test_module_list(self):
        gen = np.random.default_rng(0)
        items = ModuleList([Linear(2, 2, rng=gen)])
        items.append(Linear(2, 3, rng=gen))
        assert len(items) == 2
        assert items[1].out_features == 3
        assert len(items.parameters()) == 4

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestParameter:
    def test_requires_grad_by_default(self):
        assert Parameter(np.zeros(3)).requires_grad

    def test_linear_repr(self):
        layer = Linear(3, 4, rng=np.random.default_rng(0))
        assert "Linear" in repr(layer)
        assert "3" in repr(layer)
