"""Layer library: shapes, gradients, and layer-specific semantics."""

import numpy as np
import pytest

from repro.nn import (Conv2d, Embedding, GRU, GRUCell, LayerNorm, Linear,
                      MultiHeadAttention, Tensor)
from repro.nn.layers.attention import scaled_dot_product_attention


@pytest.fixture
def gen():
    return np.random.default_rng(7)


class TestLinear:
    def test_forward_matches_manual(self, gen):
        layer = Linear(3, 2, rng=gen)
        x = np.random.default_rng(0).normal(size=(4, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)

    def test_no_bias(self, gen):
        layer = Linear(3, 2, bias=False, rng=gen)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_arbitrary_leading_dims(self, gen):
        layer = Linear(5, 3, rng=gen)
        out = layer(Tensor(np.zeros((2, 7, 4, 5))))
        assert out.shape == (2, 7, 4, 3)

    def test_gradients_flow(self, gen):
        layer = Linear(3, 2, rng=gen)
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [4.0, 4.0])


class TestConvLayers:
    def test_conv2d_shape(self, gen):
        layer = Conv2d(3, 8, (1, 2), dilation=(1, 2), rng=gen)
        out = layer(Tensor(np.zeros((2, 3, 5, 12))))
        assert out.shape == (2, 8, 5, 10)

    def test_conv_params_registered(self, gen):
        layer = Conv2d(3, 8, (2, 2), rng=gen)
        assert layer.num_parameters() == 8 * 3 * 2 * 2 + 8

    def test_conv_no_bias(self, gen):
        layer = Conv2d(1, 1, (1, 1), bias=False, rng=gen)
        assert layer.bias is None

    def test_repr(self, gen):
        assert "Conv2d" in repr(Conv2d(1, 2, (1, 3), rng=gen))


class TestGRU:
    def test_cell_output_shape_and_range(self, gen):
        cell = GRUCell(3, 5, rng=gen)
        h = cell(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 5))))
        assert h.shape == (2, 5)
        assert np.all(np.abs(h.data) < 1.0)       # convex combo of 0 and tanh

    def test_gru_sequence_shapes(self, gen):
        gru = GRU(3, 6, num_layers=2, rng=gen)
        outs, hidden = gru(Tensor(np.zeros((4, 7, 3))))
        assert outs.shape == (4, 7, 6)
        assert len(hidden) == 2
        assert hidden[0].shape == (4, 6)

    def test_gru_last_output_equals_last_hidden(self, gen):
        gru = GRU(2, 4, rng=gen)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 5, 2)))
        outs, hidden = gru(x)
        np.testing.assert_allclose(outs.data[:, -1], hidden[-1].data)

    def test_gru_gradients_flow_through_time(self, gen):
        gru = GRU(2, 4, rng=gen)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 6, 2)),
                   requires_grad=True)
        outs, _ = gru(x)
        outs[:, -1].sum().backward()
        assert x.grad is not None
        # the first time step influences the last output
        assert np.abs(x.grad[:, 0]).max() > 0

    def test_initial_state_used(self, gen):
        gru = GRU(2, 4, rng=gen)
        x = Tensor(np.zeros((1, 3, 2)))
        h0 = [Tensor(np.ones((1, 4)))]
        out_custom, _ = gru(x, h0)
        out_default, _ = gru(x)
        assert not np.allclose(out_custom.data, out_default.data)


class TestAttention:
    def test_sdpa_uniform_when_keys_identical(self, gen):
        q = Tensor(np.random.default_rng(0).normal(size=(1, 2, 4)))
        k = Tensor(np.zeros((1, 3, 4)))
        v = Tensor(np.arange(12, dtype=float).reshape(1, 3, 4))
        out = scaled_dot_product_attention(q, k, v)
        expected = v.data.mean(axis=1, keepdims=True).repeat(2, axis=1)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_sdpa_mask_excludes_positions(self, gen):
        q = Tensor(np.random.default_rng(0).normal(size=(1, 1, 4)))
        k = Tensor(np.random.default_rng(1).normal(size=(1, 3, 4)))
        v = Tensor(np.eye(3)[None, :, :3].astype(float))
        mask = np.array([[[True, False, True]]])
        out = scaled_dot_product_attention(q, k, v, mask=mask)
        assert out.data[0, 0, 1] == pytest.approx(0.0, abs=1e-6)

    def test_mha_shape(self, gen):
        mha = MultiHeadAttention(8, 2, rng=gen)
        q = Tensor(np.zeros((3, 5, 8)))
        assert mha(q, q, q).shape == (3, 5, 8)

    def test_mha_cross_attention_lengths(self, gen):
        mha = MultiHeadAttention(8, 4, rng=gen)
        q = Tensor(np.zeros((2, 7, 8)))
        kv = Tensor(np.zeros((2, 3, 8)))
        assert mha(q, kv, kv).shape == (2, 7, 8)

    def test_mha_rejects_indivisible_heads(self, gen):
        with pytest.raises(ValueError):
            MultiHeadAttention(7, 2, rng=gen)

    def test_mha_grads(self, gen):
        mha = MultiHeadAttention(4, 2, rng=gen)
        q = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)),
                   requires_grad=True)
        mha(q, q, q).sum().backward()
        assert q.grad is not None
        assert all(p.grad is not None for p in mha.parameters())


class TestNorm:
    def test_layernorm_normalises(self, gen):
        norm = LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(4, 8)))
        out = norm(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_multi_axis(self, gen):
        norm = LayerNorm((3, 4))
        out = norm(Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))).data
        np.testing.assert_allclose(out.reshape(2, -1).mean(axis=1), 0.0,
                                   atol=1e-7)

    def test_layernorm_affine_params(self):
        norm = LayerNorm(4)
        norm.gamma.data[...] = 2.0
        norm.beta.data[...] = 1.0
        out = norm(Tensor(np.random.default_rng(0).normal(size=(3, 4)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 1.0, atol=1e-6)


class TestEmbedding:
    def test_lookup(self, gen):
        emb = Embedding(10, 4, rng=gen)
        out = emb(np.array([1, 3, 1]))
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.data[0], out.data[2])

    def test_out_of_range(self, gen):
        emb = Embedding(5, 2, rng=gen)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_scatter(self, gen):
        emb = Embedding(4, 2, rng=gen)
        emb(np.array([0, 0, 2])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[0], [2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[1], [0.0, 0.0])
        np.testing.assert_allclose(emb.weight.grad[2], [1.0, 1.0])

    def test_batched_indices(self, gen):
        emb = Embedding(10, 3, rng=gen)
        assert emb(np.zeros((2, 5), dtype=int)).shape == (2, 5, 3)
