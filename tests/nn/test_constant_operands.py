"""Backward closures skip the gradients of constant operands.

A multi-parent closure computes a parent's gradient only when that parent
requires one.  Skipping must change nothing else: the live operands'
gradients stay bitwise equal to those computed when every operand
requires grad, and a constant's ``.grad`` stays ``None``.
"""

import numpy as np
import pytest

from repro import PAPER_MODELS, create_model
from repro.nn import Tensor, functional as F, kernels

rng = np.random.default_rng(7)


def normal(*shape):
    return rng.normal(size=shape)


MASK = normal(3, 4) > 0

# name -> (op over Tensors, operand arrays)
CASES = {
    "add": (lambda a, b: a + b, [normal(3, 4), normal(4)]),
    "sub": (lambda a, b: a - b, [normal(3, 4), normal(1, 4)]),
    "mul": (lambda a, b: a * b, [normal(3, 4), normal(3, 1)]),
    "div": (lambda a, b: a / b, [normal(3, 4), 1.5 + rng.random((4,))]),
    "maximum": (lambda a, b: a.maximum(b), [normal(3, 4), normal(4)]),
    "matmul": (lambda a, b: a.matmul(b), [normal(2, 3, 4), normal(4, 5)]),
    "matmul-vec-vec": (lambda a, b: a.matmul(b), [normal(4), normal(4)]),
    "matmul-vec-mat": (lambda a, b: a.matmul(b), [normal(4), normal(2, 4, 5)]),
    "matmul-mat-vec": (lambda a, b: a.matmul(b), [normal(2, 3, 4), normal(4)]),
    "where": (lambda a, b: F.where(MASK, a, b), [normal(3, 4), normal(4)]),
    "einsum": (lambda a, b: F.einsum("nm,bcmt->bcnt", a, b),
               [normal(5, 5), normal(2, 3, 5, 4)]),
    "concat": (lambda *ts: F.concat(ts, axis=1),
               [normal(2, 3), normal(2, 1), normal(2, 2)]),
    "stack": (lambda *ts: F.stack(ts, axis=1),
              [normal(2, 3), normal(2, 3), normal(2, 3)]),
    "conv2d": (lambda x, w, b: F.conv2d(x, w, b, padding=(1, 1),
                                        dilation=(1, 2)),
               [normal(2, 3, 5, 6), normal(4, 3, 2, 2), normal(4)]),
}


def run(op, arrays, constant: int | None):
    tensors = [Tensor(a, requires_grad=i != constant)
               for i, a in enumerate(arrays)]
    out = op(*tensors)
    out.backward(np.random.default_rng(3).normal(size=out.shape))
    return [t.grad for t in tensors]


@pytest.mark.parametrize("name", CASES)
def test_live_gradients_unchanged_and_constant_untouched(name):
    op, arrays = CASES[name]
    reference = run(op, arrays, constant=None)
    for constant in range(len(arrays)):
        grads = run(op, arrays, constant)
        assert grads[constant] is None
        for i, (grad, expected) in enumerate(zip(grads, reference)):
            if i != constant:
                np.testing.assert_array_equal(grad, expected)


def test_conv2d_with_constant_input_never_scatters(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("col2im ran for a constant input")

    monkeypatch.setattr(kernels, "col2im", refuse)
    x = Tensor(normal(2, 3, 5, 6))
    weight = Tensor(normal(4, 3, 2, 2), requires_grad=True)
    F.conv2d(x, weight, padding=(1, 1)).sum().backward()
    assert weight.grad is not None and x.grad is None
    x.requires_grad = True
    with pytest.raises(AssertionError, match="col2im ran"):
        F.conv2d(x, weight, padding=(1, 1)).sum().backward()


def test_einsum_with_constant_operand_runs_one_contraction(monkeypatch):
    calls = []
    contract = kernels.einsum

    def counting(subscripts, a, b):
        calls.append(subscripts)
        return contract(subscripts, a, b)

    monkeypatch.setattr(kernels, "einsum", counting)
    support = Tensor(normal(5, 5))
    x = Tensor(normal(2, 3, 5, 4), requires_grad=True)
    out = F.einsum("nm,bcmt->bcnt", support, x)
    calls.clear()
    out.backward(np.ones(out.shape))
    assert calls == ["bcnt,nm->bcmt"]


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_model_gradients_do_not_depend_on_input_requiring_grad(
        name, ci_dataset):
    train = ci_dataset.supervised.train
    x, y, _ = train.batch(np.arange(4),
                          target_scaler=ci_dataset.supervised.scaler)

    def parameter_grads(x_requires_grad: bool):
        model = create_model(name, ci_dataset.num_nodes,
                             ci_dataset.adjacency,
                             in_features=train.num_features, seed=0)
        loss = model.training_loss(Tensor(x, requires_grad=x_requires_grad),
                                   Tensor(y))
        loss.backward()
        return [p.grad for p in model.parameters()]

    plain, live = parameter_grads(False), parameter_grads(True)
    assert len(plain) == len(live)
    for grad, expected in zip(plain, live):
        np.testing.assert_array_equal(grad, expected)
