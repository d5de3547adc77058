"""The public gradient-checking utility."""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F
from repro.nn.gradcheck import check_gradients, numerical_gradient


class TestCheckGradients:
    def test_passes_for_correct_ops(self, rng):
        assert check_gradients(lambda a, b: a * b + a.tanh(),
                               [rng.normal(size=(3, 2)),
                                rng.normal(size=(3, 2))])

    def test_passes_for_matmul(self, rng):
        assert check_gradients(lambda a, b: a @ b,
                               [rng.normal(size=(3, 4)),
                                rng.normal(size=(4, 2))])

    def test_passes_for_softmax(self, rng):
        weights = rng.normal(size=(2, 5))     # fixed across re-evaluations
        assert check_gradients(
            lambda a: F.softmax(a, axis=-1) * Tensor(weights),
            [rng.normal(size=(2, 5))])

    def test_catches_wrong_gradient(self, rng):
        """An op with a deliberately broken backward must be caught."""

        def broken(a: Tensor) -> Tensor:
            data = a.data * 3.0
            node = a._node

            def backward(g):
                node.accumulate(g * 2.0)         # wrong: should be 3.0

            return Tensor._make(data, (a,), backward, "broken")

        with pytest.raises(AssertionError, match="gradient error"):
            check_gradients(broken, [rng.normal(size=(4,))])

    def test_catches_missing_gradient(self, rng):
        """An input the function never uses receives no gradient."""

        def ignores_second(a: Tensor, b: Tensor) -> Tensor:
            return a * 2.0

        with pytest.raises(AssertionError, match="no gradient"):
            check_gradients(ignores_second,
                            [rng.normal(size=(3,)), rng.normal(size=(3,))])


class TestNumericalGradient:
    def test_quadratic(self):
        x = np.array([2.0, -1.0])
        grad = numerical_gradient(lambda: float((x ** 2).sum()), x)
        np.testing.assert_allclose(grad, [4.0, -2.0], atol=1e-5)

    def test_restores_input(self):
        x = np.array([1.0, 2.0])
        original = x.copy()
        numerical_gradient(lambda: float(x.sum()), x)
        np.testing.assert_array_equal(x, original)
