"""Fused arena updates must match the per-parameter loop.

Every optimizer carries two paths, picked by its input: the fused
single-array update over an arena and the per-parameter loop over a plain
parameter list.  These tests drive an arena-backed optimizer and one over
an unflattened twin of the same model with identical gradients for
several steps — weight decay and momentum engaged — and hold parameters
*and* optimizer state to agreement within 1e-12.
"""

import numpy as np
import pytest

from repro.nn import Linear, Module
from repro.nn.optim import (SGD, Adagrad, Adam, AdamW, RMSprop,
                            clip_grad_norm)

ATOL = 1e-12

#: (optimizer class, kwargs, state-buffer attributes to compare)
OPTIMIZERS = [
    pytest.param(Adam, dict(lr=0.01, weight_decay=1e-4), ["_m", "_v"],
                 id="adam-l2"),
    pytest.param(Adam, dict(lr=0.01), ["_m", "_v"], id="adam-plain"),
    pytest.param(AdamW, dict(lr=0.01, weight_decay=1e-2), ["_m", "_v"],
                 id="adamw"),
    pytest.param(SGD, dict(lr=0.05, momentum=0.9, weight_decay=1e-4),
                 ["_velocity"], id="sgd-momentum"),
    pytest.param(SGD, dict(lr=0.05), ["_velocity"], id="sgd-plain"),
    pytest.param(RMSprop, dict(lr=0.01, momentum=0.9, weight_decay=1e-4),
                 ["_square_avg", "_buffer"], id="rmsprop"),
    pytest.param(Adagrad, dict(lr=0.1, weight_decay=1e-4),
                 ["_accumulator"], id="adagrad"),
]


class Net(Module):
    def __init__(self, seed=0):
        super().__init__()
        gen = np.random.default_rng(seed)
        self.fc1 = Linear(4, 8, rng=gen)
        self.fc2 = Linear(8, 1, rng=gen)


def run_steps(cls, kwargs, flat, steps=5, grad_clip=None):
    """Train a fixed model on a fixed gradient stream; return model+opt.

    ``flat`` hands the optimizer the model's arena; otherwise it gets the
    plain parameter list of the unflattened model, whose gradients are
    fresh arrays each step, as autograd leaves them.
    """
    grads = np.random.default_rng(7)
    model = Net(seed=1)
    parameters = model.flatten_parameters() if flat else model.parameters()
    optimizer = cls(parameters, **kwargs)
    assert (optimizer.arena is not None) is flat
    size = sum(p.size for p in model.parameters())
    for _ in range(steps):
        stream = grads.normal(size=size) * 10.0
        if flat:
            parameters.grad[:] = stream
        else:
            offset = 0
            for param in parameters:
                param.grad = stream[offset:offset + param.size].reshape(
                    param.shape).copy()
                offset += param.size
        if grad_clip is not None:
            clip_grad_norm(parameters, grad_clip)
        optimizer.step()
    return model, optimizer


@pytest.mark.parametrize("cls, kwargs, buffers", OPTIMIZERS)
class TestFusedMatchesReference:
    def test_parameters_match(self, cls, kwargs, buffers):
        fused, _ = run_steps(cls, kwargs, flat=True)
        loop, _ = run_steps(cls, kwargs, flat=False)
        for (name, a), (_, b) in zip(fused.named_parameters(),
                                     loop.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=ATOL,
                                       err_msg=name)

    def test_state_buffers_match(self, cls, kwargs, buffers):
        _, fused = run_steps(cls, kwargs, flat=True)
        _, loop = run_steps(cls, kwargs, flat=False)
        for attr in buffers:
            for a, b in zip(getattr(fused, attr), getattr(loop, attr)):
                np.testing.assert_allclose(a, b, rtol=0, atol=ATOL,
                                           err_msg=attr)

    def test_with_clipping(self, cls, kwargs, buffers):
        fused, _ = run_steps(cls, kwargs, flat=True, grad_clip=1.0)
        loop, _ = run_steps(cls, kwargs, flat=False, grad_clip=1.0)
        for (name, a), (_, b) in zip(fused.named_parameters(),
                                     loop.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=ATOL,
                                       err_msg=name)


class TestPathSwitching:
    def test_step_count_matches(self):
        _, fused = run_steps(Adam, dict(lr=0.01), flat=True)
        _, loop = run_steps(Adam, dict(lr=0.01), flat=False)
        assert fused._step_count == loop._step_count == 5


class TestClipEquivalence:
    def test_arena_clip_matches_list_clip(self):
        model_a, model_b = Net(seed=4), Net(seed=4)
        arena = model_a.flatten_parameters()
        grads = np.random.default_rng(9)
        flat = grads.normal(size=arena.size) * 10.0
        arena.grad[:] = flat
        offset = 0
        for param in model_b.parameters():
            param.grad = flat[offset:offset + param.size].reshape(param.shape)
            offset += param.size

        norm_arena = clip_grad_norm(arena, 1.0)
        norm_list = clip_grad_norm(model_b.parameters(), 1.0)
        assert norm_arena == pytest.approx(norm_list, rel=1e-12)
        for a, b in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=ATOL)
