"""Functional ops: gradients, shapes, and error paths."""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F, kernels as K
from repro.nn.gradcheck import check_gradients

from ..conftest import numerical_gradient


class TestActivations:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 7)))
        out = F.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_gradcheck(self, rng):
        data = rng.normal(size=(3, 4))
        x = Tensor(data.copy(), requires_grad=True)
        weights = rng.normal(size=(3, 4))
        (F.softmax(x, axis=-1) * Tensor(weights)).sum().backward()
        expected = numerical_gradient(
            lambda: float((F.softmax(Tensor(data), axis=-1).data * weights).sum()),
            data)
        np.testing.assert_allclose(x.grad, expected, atol=1e-6)

    def test_softmax_invariant_to_shift(self, rng):
        data = rng.normal(size=(2, 5))
        a = F.softmax(Tensor(data), axis=-1).data
        b = F.softmax(Tensor(data + 1000.0), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestMultiInput:
    def test_concat_grad_routing(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0]], requires_grad=True)
        out = F.concat([a, b], axis=1)
        assert out.shape == (1, 3)
        (out * Tensor([[1.0, 2.0, 3.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [[1.0, 2.0]])
        np.testing.assert_allclose(b.grad, [[3.0]])

    def test_stack_grad(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        out = F.stack([a, b], axis=0)
        assert out.shape == (2, 1)
        (out * Tensor([[2.0], [5.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0])
        np.testing.assert_allclose(b.grad, [5.0])

    def test_split_reassembles(self, rng):
        data = rng.normal(size=(2, 6))
        x = Tensor(data, requires_grad=True)
        parts = F.split(x, 3, axis=1)
        assert len(parts) == 3
        reassembled = F.concat(parts, axis=1)
        np.testing.assert_allclose(reassembled.data, data)

    def test_split_indivisible_raises(self):
        with pytest.raises(ValueError):
            F.split(Tensor(np.zeros((2, 5))), 3, axis=1)

    def test_split_grad(self):
        x = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        first, second = F.split(x, 2)
        (first * 2 + 0 * second.sum()).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 0.0, 0.0])


class TestEinsum:
    def test_matches_numpy(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        out = F.einsum("ij,jk->ik", a, b)
        np.testing.assert_allclose(out.data, a.data @ b.data, atol=1e-12)

    def test_gradcheck_batched(self, rng):
        a_data = rng.normal(size=(2, 3, 4))
        b_data = rng.normal(size=(4, 5))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        F.einsum("bij,jk->bik", a, b).sum().backward()
        expected_a = numerical_gradient(
            lambda: float(np.einsum("bij,jk->bik", a_data, b_data).sum()), a_data)
        expected_b = numerical_gradient(
            lambda: float(np.einsum("bij,jk->bik", a_data, b_data).sum()), b_data)
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)

    def test_inner_product_subscripts(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = F.einsum("ij,ij->", a, b)
        out.backward()
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_rejects_ellipsis(self):
        with pytest.raises(ValueError):
            F.einsum("...i,ij->...j", Tensor(np.zeros((2, 3))),
                     Tensor(np.zeros((3, 4))))

    def test_rejects_repeated_index_within_operand(self):
        with pytest.raises(ValueError):
            F.einsum("ii,ij->ij", Tensor(np.zeros((3, 3))),
                     Tensor(np.zeros((3, 3))))

    def test_rejects_lonely_summed_index(self):
        with pytest.raises(ValueError):
            F.einsum("ij,kl->il", Tensor(np.zeros((2, 3))),
                     Tensor(np.zeros((4, 5))))

    def test_rejects_broadcast_shared_index(self):
        # np.einsum would broadcast the size-1 batch axis and the backward
        # would store a (5, 2, 3) gradient on the (1, 2, 3) operand.
        a = Tensor(np.ones((1, 2, 3)), requires_grad=True)
        b = Tensor(np.ones((5, 3, 4)), requires_grad=True)
        with pytest.raises(ValueError, match="index 'b' has size 1"):
            F.einsum("bij,bjk->bik", a, b)

    def test_rejects_repeated_output_index(self):
        with pytest.raises(ValueError, match="output index 'i' is repeated"):
            F.einsum("ij,jk->iik", Tensor(np.zeros((2, 3))),
                     Tensor(np.zeros((3, 4))))

    def test_rejects_output_index_in_no_operand(self):
        with pytest.raises(ValueError,
                           match="output index 'z' appears in no operand"):
            F.einsum("ij,jk->ikz", Tensor(np.zeros((2, 3))),
                     Tensor(np.zeros((3, 4))))

    def test_rejects_axis_count_mismatch(self):
        with pytest.raises(ValueError, match="has 3 axes"):
            F.einsum("ij,jk->ik", Tensor(np.zeros((2, 3, 1))),
                     Tensor(np.zeros((3, 4))))


#: Every two-operand contraction the paper models run, at small sizes.
MODEL_SUBSCRIPTS = [
    pytest.param("nm,bcmt->bcnt", (3, 3), (2, 2, 3, 2), id="graph-wavenet"),
    pytest.param("nm,btmc->btnc", (3, 3), (2, 2, 3, 2), id="stg2seq-gcn"),
    pytest.param("bnlc,qc->bnql", (2, 3, 2, 2), (3, 2), id="stg2seq-attn"),
    pytest.param("bnm,btmf->btnf", (2, 3, 3), (2, 2, 3, 2),
                 id="astgcn-cheb"),
    pytest.param("bnft,btu->bnfu", (2, 3, 2, 2), (2, 2, 3),
                 id="astgcn-temporal"),
    pytest.param("f,bnft->bnt", (2,), (2, 3, 2, 2), id="astgcn-score"),
    pytest.param("bni,nio->bno", (2, 3, 2), (3, 2, 2), id="st-metanet"),
]


class TestEinsumKernel:
    @pytest.mark.parametrize("subscripts, shape_a, shape_b",
                             MODEL_SUBSCRIPTS)
    def test_gradcheck_model_subscripts(self, subscripts, shape_a, shape_b,
                                        rng):
        assert check_gradients(lambda a, b: F.einsum(subscripts, a, b),
                               [rng.normal(size=shape_a),
                                rng.normal(size=shape_b)])

    @pytest.mark.parametrize("subscripts, shape_a, shape_b, gemm", [
        ("nm,bcmt->bcnt", (58, 58), (2, 3, 58, 4), True),
        ("bni,nio->bno", (2, 5, 2), (5, 2, 3), True),
        # size-1 contracted index: nothing for a GEMM to sum over
        ("bni,nio->bno", (2, 5, 1), (5, 1, 3), False),
        # no free index on the first operand
        ("f,bnft->bnt", (4,), (2, 3, 4, 5), False),
        # no contracted index at all (outer product gradient)
        ("bnt,f->bnft", (2, 3, 5), (4,), False),
        ("ij,ij->", (3, 4), (3, 4), False),
    ])
    def test_gemm_rule_reads_shapes(self, subscripts, shape_a, shape_b,
                                    gemm):
        plan = K.einsum_plan(subscripts, shape_a, shape_b)
        assert (plan.gemm is not None) is gemm

    def test_plan_is_cached_per_shape(self, rng):
        K.einsum_plan.cache_clear()
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(2, 3, 4, 5))
        K.einsum("nm,bcmt->bcnt", a, b)
        K.einsum("nm,bcmt->bcnt", a, b)
        info = K.einsum_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        K.einsum("nm,bcmt->bcnt", a, rng.normal(size=(2, 3, 4, 6)))
        assert K.einsum_plan.cache_info().misses == 2

    def test_matches_numpy_on_non_contiguous_inputs(self, rng):
        a = rng.normal(size=(6, 6))[::2, 1::2]                 # sliced
        b = rng.normal(size=(4, 3, 2, 3)).transpose(2, 1, 3, 0)  # (2,3,3,4)
        out = K.einsum("nm,bcmt->bcnt", a, b)
        np.testing.assert_allclose(out, np.einsum("nm,bcmt->bcnt", a, b),
                                   rtol=1e-12, atol=1e-12)


class TestConv:
    def test_conv2d_matches_direct_computation(self, rng):
        x = rng.normal(size=(1, 1, 3, 3))
        w = rng.normal(size=(1, 1, 2, 2))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        expected = np.zeros((1, 1, 2, 2))
        for i in range(2):
            for j in range(2):
                expected[0, 0, i, j] = (x[0, 0, i:i + 2, j:j + 2] * w[0, 0]).sum()
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_conv2d_padding_and_stride(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        out = F.conv2d(x, w, stride=(2, 2), padding=(1, 1))
        assert out.shape == (2, 4, 4, 4)

    def test_conv2d_dilation_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 1, 12)))
        w = Tensor(rng.normal(size=(3, 2, 1, 2)))
        out = F.conv2d(x, w, dilation=(1, 4))
        assert out.shape == (1, 3, 1, 8)

    def test_conv2d_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 3, 4, 4))),
                     Tensor(np.zeros((2, 4, 1, 1))))

    def test_conv2d_bias_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 2, 2)))
        w = Tensor(rng.normal(size=(3, 1, 1, 1)))
        b = Tensor(np.zeros(3), requires_grad=True)
        F.conv2d(x, w, b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 8.0))  # 2*2*2 positions

    def test_unfold2d_shapes(self, rng):
        x = rng.normal(size=(2, 3, 5, 7))
        cols, out_h, out_w = K.im2col(x, (2, 3))
        assert cols.shape == (2, 3 * 2 * 3, out_h * out_w)
        assert (out_h, out_w) == (4, 5)
