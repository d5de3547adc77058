"""Flat parameter arena: view aliasing, dedup, grad plumbing."""

import numpy as np
import pytest

from repro.nn import Linear, Module, ModuleList, Parameter, Tensor
from repro.nn.arena import ParameterArena, ParamSpec
from repro.nn.optim import Adam


class Net(Module):
    def __init__(self, seed=0):
        super().__init__()
        gen = np.random.default_rng(seed)
        self.fc1 = Linear(4, 8, rng=gen)
        self.fc2 = Linear(8, 1, rng=gen)

    def forward(self, x):
        return self.fc2(self.fc1(x).tanh())


class TiedNet(Module):
    """Encoder/decoder sharing one weight Parameter."""

    def __init__(self):
        super().__init__()
        self.shared = Parameter(np.arange(6.0).reshape(2, 3))
        self.bias = Parameter(np.zeros(3))


class TestParamSpec:
    def test_size(self):
        assert ParamSpec("w", (2, 3), 0).size == 6
        assert ParamSpec("b", (5,), 6).size == 5
        assert ParamSpec("scalar", (), 11).size == 1


class TestArenaLayout:
    def test_specs_are_contiguous_and_ordered(self):
        model = Net()
        arena = model.flatten_parameters()
        names = [name for name, _ in model.named_parameters()]
        assert [s.name for s in arena.specs] == names
        offset = 0
        for spec in arena.specs:
            assert spec.offset == offset
            offset += spec.size
        assert arena.size == offset
        assert len(arena) == len(names)

    def test_data_preserved_by_flattening(self):
        model = Net(seed=3)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        model.flatten_parameters()
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_empty_arena_rejected(self):
        with pytest.raises(ValueError, match="no parameters"):
            ParameterArena([])


class TestViewAliasing:
    def test_param_data_views_arena(self):
        model = Net()
        arena = model.flatten_parameters()
        arena.data[:] = 7.0
        assert float(model.fc1.weight.data[0, 0]) == 7.0
        model.fc2.bias.data[...] = -1.0
        spec = next(s for s in arena.specs if s.name == "fc2.bias")
        np.testing.assert_array_equal(
            arena.data[spec.offset:spec.offset + spec.size], -1.0)

    def test_autograd_accumulates_into_arena(self):
        model = Net()
        arena = model.flatten_parameters()
        x = Tensor(np.ones((2, 4)))
        loss = (model(x) ** 2).mean()
        loss.backward()
        assert float(np.abs(arena.grad).sum()) > 0
        spec = next(s for s in arena.specs if s.name == "fc2.weight")
        np.testing.assert_array_equal(
            arena.grad[spec.offset:spec.offset + spec.size]
            .reshape(spec.shape),
            model.fc2.weight.grad)

    def test_tied_parameters_stored_once(self):
        model = TiedNet()
        named = list(model.named_parameters())
        named.append(("decoder.weight", model.shared))   # tied alias
        arena = ParameterArena(named)
        assert len(arena) == 2                           # dedup by identity
        assert arena.size == 6 + 3
        arena.data[:6] = 0.0
        np.testing.assert_array_equal(model.shared.data, np.zeros((2, 3)))


class TestFlattenParameters:
    def test_idempotent(self):
        model = Net()
        arena = model.flatten_parameters()
        assert model.flatten_parameters() is arena

    def test_covers(self):
        model = Net()
        arena = model.flatten_parameters()
        assert arena.covers(model.parameters())
        assert not arena.covers(model.parameters()[:-1])
        assert not arena.covers(Net().parameters())


class TestNoSteal:
    """A parameter bound to one arena is never packed into another: that
    would detach it from the optimizer holding the first arena."""

    def test_optimizer_over_a_bound_subset_raises(self):
        model = Linear(3, 2, rng=np.random.default_rng(0))
        first = Adam(model.parameters(), lr=0.1)
        with pytest.raises(ValueError, match="'param0'"):
            Adam([model.weight])
        assert model.weight._arena is first.arena
        before = model.weight.data.copy()
        model.weight.grad = np.ones_like(before)
        first.step()
        assert np.all(model.weight.data < before)

    def test_flattening_a_submodule_of_a_flat_model_raises(self):
        gen = np.random.default_rng(0)
        model = ModuleList([Linear(3, 2, rng=gen), Linear(2, 2, rng=gen)])
        arena = model.flatten_parameters()
        with pytest.raises(ValueError, match="'weight'"):
            model[0].flatten_parameters()
        assert model.flatten_parameters() is arena
        optimizer = Adam(arena, lr=0.1)
        before = model[0].weight.data.copy()
        model[0].weight.grad = np.ones_like(before)
        optimizer.step()
        assert np.all(model[0].weight.data < before)


class TestGradOps:
    def test_zero_grad_is_memset_and_rearms_views(self):
        model = Net()
        arena = model.flatten_parameters()
        arena.grad[:] = 3.0
        model.fc1.weight.grad = np.ones_like(model.fc1.weight.data)  # stray
        arena.zero_grad()
        np.testing.assert_array_equal(arena.grad, 0.0)
        for param in model.parameters():
            assert param.grad is param._grad_view

    def test_param_zero_grad_zeroes_in_place(self):
        model = Net()
        arena = model.flatten_parameters()
        arena.grad[:] = 5.0
        model.fc1.weight.zero_grad()
        assert model.fc1.weight.grad is model.fc1.weight._grad_view
        np.testing.assert_array_equal(model.fc1.weight.grad, 0.0)

    def test_sync_grads_copies_strays_and_zeroes_none(self):
        model = Net()
        arena = model.flatten_parameters()
        arena.grad[:] = 9.0
        model.fc1.weight.grad = np.full(model.fc1.weight.shape, 2.0)
        model.fc2.bias.grad = None
        arena.sync_grads()
        np.testing.assert_array_equal(model.fc1.weight.grad, 2.0)
        np.testing.assert_array_equal(model.fc2.bias.grad, 0.0)
        for param in model.parameters():
            assert param.grad is param._grad_view

    def test_grad_norm_matches_per_param_norm(self, rng):
        model = Net()
        arena = model.flatten_parameters()
        arena.grad[:] = rng.normal(size=arena.size)
        expected = np.sqrt(sum(float((p.grad ** 2).sum())
                               for p in model.parameters()))
        assert arena.grad_norm() == pytest.approx(expected, rel=1e-12)


class TestStateLike:
    def test_views_alias_flat_buffer(self):
        arena = Net().flatten_parameters()
        flat, views = arena.state_like()
        assert flat.shape == arena.data.shape
        np.testing.assert_array_equal(flat, 0.0)
        views[0][...] = 4.0
        spec = arena.specs[0]
        np.testing.assert_array_equal(
            flat[spec.offset:spec.offset + spec.size], 4.0)
        assert [v.shape for v in views] == [s.shape for s in arena.specs]
