"""The fused arena updates must match the per-parameter oracle.

``Adam`` updates a whole parameter arena in a handful of flat-array ops;
``repro.nn.reference.adam_step`` is the same update one parameter at a
time.  These tests drive the fused optimizer on a model and the oracle
on an unflattened twin of it with identical gradients for several steps
— weight decay and clipping engaged — and hold parameters *and* moment
buffers to agreement within 1e-12.
"""

import numpy as np
import pytest

from repro.nn import Linear, Module, reference
from repro.nn.optim import Adam, clip_grad_norm

ATOL = 1e-12

OPTIMIZERS = [
    pytest.param(dict(lr=0.01, weight_decay=1e-4), id="adam-l2"),
    pytest.param(dict(lr=0.01), id="adam-plain"),
]


class Net(Module):
    def __init__(self, seed=0):
        super().__init__()
        gen = np.random.default_rng(seed)
        self.fc1 = Linear(4, 8, rng=gen)
        self.fc2 = Linear(8, 1, rng=gen)


def run_steps(kwargs, flat, steps=5, grad_clip=None):
    """Train a fixed model on a fixed gradient stream; return the model
    and its moment buffers ``(m, v)`` as per-parameter arrays.

    ``flat`` runs ``Adam`` over the model's arena; otherwise the oracle
    updates the plain parameter list of the unflattened model, whose
    gradients are fresh arrays each step, as autograd leaves them.
    """
    grads = np.random.default_rng(7)
    model = Net(seed=1)
    parameters = model.parameters()
    if flat:
        optimizer = Adam(model.flatten_parameters(), **kwargs)
        m, v = optimizer._m, optimizer._v
    else:
        m = [np.zeros_like(p.data) for p in parameters]
        v = [np.zeros_like(p.data) for p in parameters]
    size = sum(p.size for p in parameters)
    for step in range(1, steps + 1):
        stream = grads.normal(size=size) * 10.0
        if flat:
            optimizer.arena.grad[:] = stream
            if grad_clip is not None:
                clip_grad_norm(optimizer.arena, grad_clip)
            optimizer.step()
            continue
        offset = 0
        for param in parameters:
            param.grad = stream[offset:offset + param.size].reshape(
                param.shape).copy()
            offset += param.size
        if grad_clip is not None:
            reference.clip_grad_norm(parameters, grad_clip)
        reference.adam_step(parameters, m, v, step, **kwargs)
    return model, (m, v)


@pytest.mark.parametrize("kwargs", OPTIMIZERS)
class TestFusedMatchesReference:
    def test_parameters_match(self, kwargs):
        fused, _ = run_steps(kwargs, flat=True)
        loop, _ = run_steps(kwargs, flat=False)
        for (name, a), (_, b) in zip(fused.named_parameters(),
                                     loop.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=ATOL,
                                       err_msg=name)

    def test_state_buffers_match(self, kwargs):
        _, fused = run_steps(kwargs, flat=True)
        _, loop = run_steps(kwargs, flat=False)
        for name, fused_buffers, loop_buffers in zip("mv", fused, loop):
            for a, b in zip(fused_buffers, loop_buffers):
                np.testing.assert_allclose(a, b, rtol=0, atol=ATOL,
                                           err_msg=name)

    def test_with_clipping(self, kwargs):
        fused, _ = run_steps(kwargs, flat=True, grad_clip=1.0)
        loop, _ = run_steps(kwargs, flat=False, grad_clip=1.0)
        for (name, a), (_, b) in zip(fused.named_parameters(),
                                     loop.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=ATOL,
                                       err_msg=name)


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
        norm_list = reference.clip_grad_norm(model_b.parameters(), 1.0)
        assert norm_arena == pytest.approx(norm_list, rel=1e-12)
        for a, b in zip(model_a.parameters(), model_b.parameters()):
            np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=ATOL)
