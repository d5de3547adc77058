"""Fast-kernel vs. reference-engine gradient equivalence.

Every kernel this repo rewrote for speed — the conv2d col2im scatter, the
cached im2col indices, the BLAS conv contractions, the basic-index
``__getitem__`` backward, and the shared-buffer ``unbind``/``split``
views — must produce gradients identical (≤1e-8) to the original
``np.add.at`` engine, which the oracle :mod:`repro.nn.reference` keeps.
The suite sweeps strided, dilated, padded, and tie (overlapping-tap)
geometries, plus the bincount fallback for many-tap kernels.
"""

import contextlib

import numpy as np
import pytest

import repro.nn.tensor as tensor_module
from repro.nn import Tensor, functional as F, kernels as K
from repro.nn import reference
from repro.nn.gradcheck import check_gradients

TOL = 1e-8

#: (input shape, weight shape, conv kwargs) — every geometry class the
#: models exercise, including ties from overlapping taps (stride < kernel).
CONV_GEOMETRIES = [
    pytest.param((2, 3, 5, 12), (4, 3, 1, 3), {}, id="temporal-1xk"),
    pytest.param((2, 3, 9, 11), (4, 3, 3, 3), dict(stride=(2, 2)),
                 id="strided"),
    pytest.param((2, 3, 9, 11), (4, 3, 3, 3), dict(dilation=(2, 2)),
                 id="dilated"),
    pytest.param((2, 3, 9, 11), (4, 3, 3, 3), dict(padding=(2, 1)),
                 id="padded"),
    pytest.param((2, 3, 10, 12), (4, 3, 3, 3),
                 dict(stride=(2, 1), padding=(1, 2), dilation=(1, 2)),
                 id="strided-dilated-padded"),
    pytest.param((2, 3, 6, 6), (4, 3, 5, 5), dict(padding=(4, 4)),
                 id="heavy-ties"),
]


def _engine(oracle):
    """The whole reference engine when ``oracle``, else the production one."""
    return reference.engine() if oracle else contextlib.nullcontext()


def _conv_forward_backward(conv2d, x, w, b, **kwargs):
    """One conv2d forward+backward; returns (out, gx, gw, gb) arrays."""
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    out = conv2d(xt, wt, bt, **kwargs)
    out.backward(np.ones_like(out.data))
    return out.data, xt.grad, wt.grad, bt.grad


class TestConvEquivalence:
    @pytest.mark.parametrize("x_shape, w_shape, kwargs", CONV_GEOMETRIES)
    def test_fast_matches_reference(self, rng, x_shape, w_shape, kwargs):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=(w_shape[0],))
        fast = _conv_forward_backward(F.conv2d, x, w, b, **kwargs)
        ref = _conv_forward_backward(reference.conv2d, x, w, b, **kwargs)
        for name, a, r in zip(("out", "gx", "gw", "gb"), fast, ref):
            assert np.abs(a - r).max() <= TOL, name

    @pytest.mark.parametrize("x_shape, w_shape, kwargs", CONV_GEOMETRIES)
    def test_gradcheck(self, rng, x_shape, w_shape, kwargs):
        assert check_gradients(
            lambda x, w: F.conv2d(x, w, **kwargs),
            [rng.normal(size=x_shape), rng.normal(size=w_shape)])


class TestCol2imEquivalence:
    @pytest.mark.parametrize("shape, kernel, stride, dilation", [
        ((2, 3, 1, 12), (1, 3), (1, 1), (1, 1)),      # temporal fast path
        ((2, 3, 9, 11), (3, 3), (1, 1), (1, 1)),      # overlapping ties
        ((2, 3, 9, 11), (3, 3), (2, 2), (1, 1)),      # strided
        ((2, 3, 12, 12), (3, 3), (1, 1), (2, 2)),     # dilated
    ], ids=["temporal", "ties", "strided", "dilated"])
    def test_matches_reference(self, rng, shape, kernel, stride, dilation):
        rows, cols, out_h, out_w = K.col_indices(shape[2], shape[3], kernel,
                                                 stride, dilation)
        g_cols = rng.normal(size=(shape[0], shape[1], kernel[0] * kernel[1],
                                  out_h * out_w))
        fast = K.col2im(g_cols, shape, kernel, stride, dilation)
        ref = reference.col2im(g_cols, shape, kernel, stride, dilation)
        assert np.abs(fast - ref).max() <= TOL

    def test_bincount_path_matches_reference(self, rng, monkeypatch):
        """Kernels with more taps than the threshold take the flat
        bincount scatter; force it and compare."""
        monkeypatch.setattr(K, "_BINCOUNT_TAP_THRESHOLD", 3)
        shape, kernel = (2, 2, 8, 8), (3, 3)
        rows, cols, out_h, out_w = K.col_indices(8, 8, kernel, (1, 1), (1, 1))
        g_cols = rng.normal(size=(2, 2, 9, out_h * out_w))
        fast = K.col2im(g_cols, shape, kernel)
        ref = reference.col2im(g_cols, shape, kernel)
        assert np.abs(fast - ref).max() <= TOL

    def test_index_cache_hits(self):
        K.clear_col_indices_cache()
        K.col_indices(9, 11, (3, 3), (1, 1), (1, 1))
        K.col_indices(9, 11, (3, 3), (1, 1), (1, 1))
        info = K.col_indices_cache_info()
        assert info.hits >= 1 and info.misses == 1


class TestGetitemEquivalence:
    @pytest.mark.parametrize("index", [
        1,
        slice(1, 3),
        (slice(None), 2),
        (Ellipsis, slice(0, 2)),
        (1, None, slice(None, None, 2)),
        (slice(None, None, -1), slice(2, None)),
    ], ids=["int", "slice", "axis1-int", "ellipsis", "newaxis", "negstep"])
    def test_basic_index_matches_reference(self, rng, index):
        data = rng.normal(size=(4, 5))
        grads = {}
        for oracle in (False, True):
            x = Tensor(data, requires_grad=True)
            with _engine(oracle):
                (x[index] * 2.0).sum().backward()
            grads[oracle] = x.grad
        assert np.abs(grads[False] - grads[True]).max() <= TOL

    def test_advanced_index_with_ties_still_accumulates(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])

    def test_basic_index_skips_scatter_add(self, rng, monkeypatch):
        calls = []
        original = tensor_module._scatter_add
        monkeypatch.setattr(tensor_module, "_scatter_add",
                            lambda *a: calls.append(a) or original(*a))
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        x[1:3].sum().backward()
        assert calls == []
        x2 = Tensor(rng.normal(size=(4,)), requires_grad=True)
        x2[np.array([0, 0, 1])].sum().backward()
        assert len(calls) == 1


class TestViewOpsEquivalence:
    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_unbind_matches_reference(self, rng, axis):
        data = rng.normal(size=(3, 4, 5))
        grads = {}
        for oracle in (False, True):
            x = Tensor(data, requires_grad=True)
            with _engine(oracle):
                total = None
                for i, view in enumerate(F.unbind(x, axis=axis)):
                    term = (view * float(i + 1)).sum()
                    total = term if total is None else total + term
                total.backward()
            grads[oracle] = x.grad
        assert np.abs(grads[False] - grads[True]).max() <= TOL

    def test_unbind_gradcheck(self, rng):
        def op(x):
            steps = F.unbind(x, axis=1)
            total = steps[0] * steps[0]
            for step in steps[1:]:
                total = total + step.tanh()
            return total

        assert check_gradients(op, [rng.normal(size=(2, 4, 3))])

    def test_split_matches_reference(self, rng):
        data = rng.normal(size=(2, 6, 5))
        grads = {}
        for oracle in (False, True):
            x = Tensor(data, requires_grad=True)
            with _engine(oracle):
                value, gate = F.split(x, 2, axis=1)
                (value * gate.sigmoid()).sum().backward()
            grads[oracle] = x.grad
        assert np.abs(grads[False] - grads[True]).max() <= TOL

    def test_split_backward_never_calls_scatter_add(self, rng, monkeypatch):
        """Regression for the slice fast path: a split backward must not
        fall back to the ``np.add.at`` scatter."""
        calls = []
        original = tensor_module._scatter_add
        monkeypatch.setattr(tensor_module, "_scatter_add",
                            lambda *a: calls.append(a) or original(*a))
        x = Tensor(rng.normal(size=(4, 6, 5)), requires_grad=True)
        parts = F.split(x, 3, axis=1)
        total = None
        for part in parts:
            term = (part * part).sum()
            total = term if total is None else total + term
        total.backward()
        assert calls == []
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_split_single_grad_pass_into_source(self, rng):
        """All chunk gradients land in one buffer handed to the source
        once (the anchor pattern), not via repeated full-size adds."""
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        a, b = F.split(x, 2, axis=1)
        (a.sum() + (2.0 * b).sum()).backward()
        expected = np.concatenate(
            [np.ones((2, 2)), 2.0 * np.ones((2, 2))], axis=1)
        np.testing.assert_allclose(x.grad, expected)


class TestReferenceEngine:
    def test_engine_routes_every_switched_op(self, rng, monkeypatch):
        calls = []
        original = tensor_module._scatter_add
        monkeypatch.setattr(tensor_module, "_scatter_add",
                            lambda *a: calls.append(a) or original(*a))
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        with reference.engine():
            assert F.conv2d is reference.conv2d
            a, b = F.split(x, 2, axis=1)
            assert a.op == b.op == "getitem"
            (a * b).sum().backward()
        assert len(calls) == 2          # basic-index adjoints scatter too
        np.testing.assert_allclose(x.grad, np.concatenate(
            [x.data[:, 3:], x.data[:, :3]], axis=1))

    def test_engine_restores_ops_when_block_raises(self):
        originals = (F.conv2d, F._slice_views, tensor_module._is_basic_index)
        with pytest.raises(RuntimeError, match="inside"):
            with reference.engine():
                assert F.conv2d is not originals[0]
                raise RuntimeError("inside the block")
        assert (F.conv2d, F._slice_views,
                tensor_module._is_basic_index) == originals
