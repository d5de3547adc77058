"""Autograd graph hygiene: no_grad, detach, and tape containment."""

import numpy as np
import pytest

from repro.nn import Linear, Tensor, no_grad


class TestGraphContainment:
    def test_no_grad_ops_keep_no_parents(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with no_grad():
            y = (x * 2 + 1).relu()
        assert y._node is None
        assert y._backward is None

    def test_constant_inputs_keep_no_parents(self):
        a = Tensor(np.ones(3))
        b = Tensor(np.ones(3))
        out = a * b + a
        assert not out.requires_grad
        assert out._node is None

    def test_graph_only_tracks_grad_paths(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        out = x * c
        assert out.requires_grad
        # The constant has no node, so the only parent link is x's node.
        assert out._node.parents == (x._node,)

    def test_backward_does_not_touch_non_grad_leaves(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.full(3, 2.0))
        (x * c).sum().backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])

    def test_eval_inference_accumulates_no_grads(self, rng):
        layer = Linear(4, 4, rng=np.random.default_rng(0))
        with no_grad():
            layer(Tensor(rng.normal(size=(2, 4))))
        assert layer.weight.grad is None
        assert layer.bias.grad is None

    def test_grad_flag_off_inside_training_loss_context(self, ci_dataset):
        """predict() must never leave grads on model parameters."""
        from repro.core import predict
        from repro.models import create_model
        model = create_model("stg2seq", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        predict(model, ci_dataset.supervised.val,
                ci_dataset.supervised.scaler)
        assert all(p.grad is None for p in model.parameters())


class TestRepeatedBackward:
    def test_two_backwards_through_same_graph_accumulate(self):
        x = Tensor(np.ones(2), requires_grad=True)
        out = (x * 3).sum()
        out.backward()
        out.backward()
        np.testing.assert_allclose(x.grad, [6.0, 6.0])

    def test_zero_grad_between_steps(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 3).sum().backward()
        x.zero_grad()
        (x * 5).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])


class TestDtypePromotion:
    def test_integer_payload_promoted(self):
        t = Tensor(np.arange(4))
        assert t.dtype.kind == "f"

    def test_bool_payload_promoted(self):
        t = Tensor(np.array([True, False]))
        assert t.dtype.kind == "f"
        np.testing.assert_array_equal(t.data, [1.0, 0.0])

    def test_grad_matches_data_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad.dtype == np.float32
