"""Adam, schedulers, and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Linear, Parameter, ParameterArena, Tensor
from repro.nn.optim import (Adam, CosineAnnealingLR, ExponentialLR, StepLR,
                            clip_grad_norm)


def quadratic_loss(param: Parameter) -> Tensor:
    """Convex loss with minimum at 3."""
    diff = param - Tensor(np.full(param.shape, 3.0))
    return (diff * diff).sum()


def train(optimizer_cls, steps=200, **kwargs) -> Parameter:
    param = Parameter(np.zeros(4))
    optimizer = optimizer_cls([param], **kwargs)
    for _ in range(steps):
        optimizer.zero_grad()
        quadratic_loss(param).backward()
        optimizer.step()
    return param


class TestAdam:
    def test_converges_on_quadratic(self):
        param = train(Adam, steps=400, lr=0.05)
        np.testing.assert_allclose(param.data, 3.0, atol=1e-3)

    def test_first_step_size_equals_lr(self):
        # With bias correction, |Δ| of the very first step ≈ lr.
        param = Parameter(np.zeros(1))
        optimizer = Adam([param], lr=0.1)
        (param * 5.0).sum().backward()
        optimizer.step()
        assert abs(param.data[0]) == pytest.approx(0.1, rel=1e-5)

    def test_list_then_flatten_shares_one_arena(self):
        """Flattening after the optimizer packed the list must not orphan
        the optimizer's arena: both see one arena, and steps still move
        the model's weights."""
        model = Linear(3, 2, rng=np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=0.1)
        assert model.flatten_parameters() is optimizer.arena
        before = model.weight.data.copy()
        model.weight.grad = np.ones_like(before)
        optimizer.step()
        assert np.all(model.weight.data < before)

    def test_missing_gradient_counts_as_zero(self):
        """A parameter without a gradient at a step takes a zero gradient:
        its moments decay, and it keeps moving on them."""
        param = Parameter(np.zeros(2))
        optimizer = Adam([param], lr=0.1)
        param.grad = np.ones(2)
        optimizer.step()
        after_first = param.data.copy()
        param.grad = None
        optimizer.step()
        assert np.all(param.data < after_first)
        np.testing.assert_array_equal(param.grad, 0.0)


class TestOptimizerValidation:
    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)


def _arena(grad):
    param = Parameter(np.zeros(len(grad)))
    arena = ParameterArena([("p", param)])
    arena.grad[:] = grad
    return arena, param


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        arena, param = _arena(np.full(4, 3.0))      # norm = 6
        returned = clip_grad_norm(arena, max_norm=2.0)
        assert returned == pytest.approx(6.0)
        assert np.linalg.norm(param.grad) == pytest.approx(2.0)

    def test_leaves_small_grads_alone(self):
        arena, param = _arena(np.full(4, 0.1))
        norm_before = np.linalg.norm(param.grad)
        clip_grad_norm(arena, max_norm=10.0)
        assert np.linalg.norm(param.grad) == pytest.approx(norm_before)

    def test_no_grads_returns_zero(self):
        arena, _ = _arena(np.zeros(2))
        assert clip_grad_norm(arena, 1.0) == 0.0


class TestSchedulers:
    def _optimizer(self):
        return Adam([Parameter(np.zeros(1))], lr=1.0)

    def test_step_lr(self):
        optimizer = self._optimizer()
        scheduler = StepLR(optimizer, step_size=2, gamma=0.1)
        lrs = []
        for _ in range(4):
            scheduler.step()
            lrs.append(optimizer.lr)
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_step_lr_validation(self):
        with pytest.raises(ValueError):
            StepLR(self._optimizer(), step_size=0)

    def test_exponential_lr(self):
        optimizer = self._optimizer()
        scheduler = ExponentialLR(optimizer, gamma=0.5)
        scheduler.step()
        assert optimizer.lr == pytest.approx(0.5)
        scheduler.step()
        assert optimizer.lr == pytest.approx(0.25)

    def test_cosine_reaches_eta_min(self):
        optimizer = self._optimizer()
        scheduler = CosineAnnealingLR(optimizer, t_max=10, eta_min=0.01)
        for _ in range(10):
            scheduler.step()
        assert optimizer.lr == pytest.approx(0.01)

    def test_cosine_monotone_decreasing(self):
        optimizer = self._optimizer()
        scheduler = CosineAnnealingLR(optimizer, t_max=5)
        previous = optimizer.lr
        for _ in range(5):
            scheduler.step()
            assert optimizer.lr <= previous
            previous = optimizer.lr

    def test_cosine_validation(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(self._optimizer(), t_max=0)
