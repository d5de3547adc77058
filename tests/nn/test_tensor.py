"""Tensor autograd: op-by-op correctness against numerical gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad, is_grad_enabled
from repro.nn.tensor import unbroadcast

from ..conftest import numerical_gradient


def check_unary(op_name, data, tol=1e-6):
    """Analytic vs numerical gradient for a unary tensor method."""
    x = Tensor(data.copy(), requires_grad=True)
    out = getattr(x, op_name)()
    out.sum().backward()

    def value():
        return float(getattr(Tensor(data), op_name)().data.sum())

    expected = numerical_gradient(value, data)
    np.testing.assert_allclose(x.grad, expected, atol=tol, rtol=1e-4)


class TestBasicProperties:
    def test_shape_and_dtype(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4

    def test_integer_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))
        assert "requires_grad" not in repr(Tensor(1.0))

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_rejects_tensor_payload(self):
        with pytest.raises(TypeError):
            Tensor(Tensor([1.0]))

    def test_rejects_string_payload(self):
        with pytest.raises(TypeError):
            Tensor(np.array(["a", "b"]))


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_after_exception(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            x.backward(np.ones(3))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_zero_grad(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_shared_subexpression_accumulates(self):
        # y = x*x uses x twice; dy/dx = 2x
        x = Tensor([3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph(self):
        # z = (x+1) * (x+2): dz/dx = (x+2) + (x+1) = 2x+3
        x = Tensor([1.0], requires_grad=True)
        ((x + 1.0) * (x + 2.0)).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):       # would blow the stack if recursive
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestArithmetic:
    def test_add_broadcast_grad(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_radd_rsub_rmul_rdiv(self):
        x = Tensor([2.0], requires_grad=True)
        assert (1.0 + x).data[0] == 3.0
        assert (5.0 - x).data[0] == 3.0
        assert (3.0 * x).data[0] == 6.0
        assert (8.0 / x).data[0] == 4.0

    def test_sub_grad(self, rng):
        data = rng.normal(size=(2, 3))
        a = Tensor(data, requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, -np.ones((2, 3)))

    def test_div_grad_numerical(self, rng):
        a_data = rng.normal(size=(3,)) + 3.0
        b_data = rng.normal(size=(3,)) + 3.0
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a / b).sum().backward()
        expected_a = numerical_gradient(
            lambda: float((a_data / b_data).sum()), a_data)
        expected_b = numerical_gradient(
            lambda: float((a_data / b_data).sum()), b_data)
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)

    def test_pow_grad(self):
        x = Tensor([2.0], requires_grad=True)
        (x ** 3).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        (-x).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])


class TestMatmul:
    def test_2d(self, rng):
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 5))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()
        expected_a = numerical_gradient(
            lambda: float((a_data @ b_data).sum()), a_data)
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)

    def test_batched_broadcast(self, rng):
        a_data = rng.normal(size=(2, 3, 4))
        b_data = rng.normal(size=(4, 5))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        expected_b = numerical_gradient(
            lambda: float((a_data @ b_data).sum()), b_data)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)

    def test_matrix_times_vector(self, rng):
        a_data = rng.normal(size=(2, 3, 4))
        v_data = rng.normal(size=(4,))
        a = Tensor(a_data.copy(), requires_grad=True)
        v = Tensor(v_data.copy(), requires_grad=True)
        out = a @ v
        assert out.shape == (2, 3)
        out.sum().backward()
        expected_v = numerical_gradient(
            lambda: float((a_data @ v_data).sum()), v_data)
        np.testing.assert_allclose(v.grad, expected_v, atol=1e-5)
        expected_a = numerical_gradient(
            lambda: float((a_data @ v_data).sum()), a_data)
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)

    def test_vector_times_matrix(self, rng):
        v_data = rng.normal(size=(4,))
        b_data = rng.normal(size=(4, 5))
        v = Tensor(v_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (v @ b).sum().backward()
        expected_v = numerical_gradient(
            lambda: float((v_data @ b_data).sum()), v_data)
        np.testing.assert_allclose(v.grad, expected_v, atol=1e-5)

    def test_vector_vector(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a @ b).backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])


class TestElementwise:
    @pytest.mark.parametrize("op", ["tanh", "sigmoid", "relu", "abs"])
    def test_gradcheck(self, op, rng):
        data = rng.normal(size=(4, 3)) * 0.8 + 0.3
        check_unary(op, data)

    def test_sqrt_on_positive(self, rng):
        data = np.abs(rng.normal(size=(5,))) + 0.5
        check_unary("sqrt", data)

    def test_maximum(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        out = a.maximum(b)
        np.testing.assert_allclose(out.data, [3.0, 5.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor([-500.0, 500.0])
        out = x.sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_matches_three_exp_formula_bitwise(self, recwarn):
        grid = np.concatenate([
            [0.0, -0.0, 60.0, -60.0, 700.0, -700.0, np.inf, -np.inf, np.nan,
             5e-324, -5e-324, 709.8, -745.2],
            np.linspace(-800.0, 800.0, 4001)])
        clipped_low = np.clip(grid, -60, None)
        clipped_high = np.clip(grid, None, 60)
        old = np.where(grid >= 0, 1.0 / (1.0 + np.exp(-clipped_low)),
                       np.exp(clipped_high) / (1.0 + np.exp(clipped_high)))
        g = np.random.default_rng(0).normal(size=grid.shape)
        old_grad = g * old * (1.0 - old)
        recwarn.clear()
        x = Tensor(grid, requires_grad=True)
        out = x.sigmoid()
        out.backward(g)
        assert not [w for w in recwarn
                    if issubclass(w.category, RuntimeWarning)]
        # Bitwise wherever the value is a number; NaN stays NaN (the sign
        # bit of a NaN carries no meaning).
        number = ~np.isnan(old)
        assert np.array_equal(np.isnan(out.data), ~number)
        assert np.array_equal(out.data[number].view(np.int64),
                              old[number].view(np.int64))
        number = ~np.isnan(old_grad)
        assert np.array_equal(np.isnan(x.grad), ~number)
        assert np.array_equal(x.grad[number].view(np.int64),
                              old_grad[number].view(np.int64))


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        data = rng.normal(size=(2, 3, 4))
        x = Tensor(data, requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    def test_sum_multiple_axes(self, rng):
        data = rng.normal(size=(2, 3, 4))
        x = Tensor(data, requires_grad=True)
        out = x.sum(axis=(0, 2))
        assert out.shape == (3,)
        (out * Tensor([1.0, 2.0, 3.0])).sum().backward()
        expected = np.broadcast_to(np.array([1., 2., 3.])[None, :, None],
                                   (2, 3, 4))
        np.testing.assert_allclose(x.grad, expected)

    def test_mean_matches_sum(self, rng):
        data = rng.normal(size=(4, 5))
        x = Tensor(data, requires_grad=True)
        x.mean(axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 5), 0.25))

    def test_max_grad_flows_to_argmax(self):
        x = Tensor([[1.0, 5.0, 2.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        x = Tensor([3.0, 3.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_min(self):
        x = Tensor([4.0, 1.0, 2.0], requires_grad=True)
        out = x.min()
        assert out.item() == 1.0
        out.backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_global_max_no_axis(self, rng):
        data = rng.normal(size=(3, 3))
        x = Tensor(data, requires_grad=True)
        out = x.max()
        assert out.item() == data.max()


class TestShapeOps:
    def test_reshape_roundtrip_grad(self, rng):
        data = rng.normal(size=(2, 6))
        x = Tensor(data, requires_grad=True)
        (x.reshape(3, 4) * 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 6), 2.0))

    def test_transpose_grad(self, rng):
        data = rng.normal(size=(2, 3, 4))
        x = Tensor(data, requires_grad=True)
        out = x.transpose(2, 0, 1)
        assert out.shape == (4, 2, 3)
        scale = np.arange(24).reshape(4, 2, 3).astype(float)
        (out * Tensor(scale)).sum().backward()
        np.testing.assert_allclose(x.grad, scale.transpose(1, 2, 0))

    def test_default_transpose_reverses(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert x.T.shape == (4, 3, 2)

    def test_swapaxes(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert x.swapaxes(1, 2).shape == (2, 4, 3)

    def test_getitem_grad_scatter(self):
        x = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        x[1:3].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0, 0.0])

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        x[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 1.0])

    def test_expand_squeeze(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = x.expand_dims(1)
        assert out.shape == (2, 1, 3)
        back = out.squeeze(1)
        assert back.shape == (2, 3)
        back.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_pad_grad(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        out = x.pad(((0, 0), (1, 2)))
        assert out.shape == (1, 5)
        np.testing.assert_allclose(out.data, [[0, 1, 2, 0, 0]])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[1.0, 1.0]])

    def test_pad_scalar_width(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        out = x.pad(1)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(
            out.data, np.pad(np.array([[1.0, 2.0]]), 1))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[1.0, 1.0]])

    def test_pad_single_pair_broadcasts(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        out = x.pad((1, 2))
        assert out.shape == (4, 5)
        np.testing.assert_allclose(
            out.data, np.pad(np.array([[1.0, 2.0]]), (1, 2)))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[1.0, 1.0]])

    def test_pad_nested_single_pair_broadcasts(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(x.pad(((1, 2),)).data,
                                   np.pad(x.data, ((1, 2),)))

    def test_pad_rejects_bad_widths(self):
        x = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            x.pad(((1, 2), (3, 4), (5, 6)))   # wrong number of axes
        with pytest.raises(ValueError):
            x.pad(((1, 2, 3), (1, 2, 3)))     # triples, not pairs
        with pytest.raises((TypeError, ValueError)):
            x.pad("wide")

    def test_repeat_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = x.expand_dims(0).repeat(3, axis=0)
        assert out.shape == (3, 2)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [3.0, 3.0])


class TestComparisons:
    def test_comparisons_return_bool_arrays(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert (x > 1.5).tolist() == [False, True, True]
        assert (x < 2.0).tolist() == [True, False, False]
        assert (x >= 2.0).tolist() == [False, True, True]
        assert (x <= 1.0).tolist() == [True, False, False]

    def test_compare_against_tensor(self):
        a = Tensor([1.0, 3.0])
        b = Tensor([2.0, 2.0])
        assert (a > b).tolist() == [False, True]


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sum_leading_axis(self):
        g = np.ones((5, 2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)
        np.testing.assert_allclose(unbroadcast(g, (2, 3)), np.full((2, 3), 5.0))

    def test_sum_size_one_axis(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 1)), np.full((2, 1), 3.0))

    def test_combined(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (1, 3)), np.full((1, 3), 8.0))
