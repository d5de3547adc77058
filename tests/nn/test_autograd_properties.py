"""Property-based tests (hypothesis) for autograd invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Tensor, functional as F, kernels as K
from repro.nn import reference

SETTINGS = dict(max_examples=40, deadline=None)

finite_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False))


@given(finite_arrays)
@settings(**SETTINGS)
def test_sum_gradient_is_ones(data):
    x = Tensor(data.copy(), requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(data))


@given(finite_arrays, st.floats(-5, 5, allow_nan=False))
@settings(**SETTINGS)
def test_scalar_multiplication_scales_gradient(data, scale):
    x = Tensor(data.copy(), requires_grad=True)
    (x * scale).sum().backward()
    np.testing.assert_allclose(x.grad, np.full_like(data, scale), atol=1e-12)


@given(finite_arrays)
@settings(**SETTINGS)
def test_linearity_of_gradients(data):
    # grad(f + g) == grad(f) + grad(g)
    x1 = Tensor(data.copy(), requires_grad=True)
    ((x1 * 2.0).sum() + (x1 * x1).sum()).backward()

    x2 = Tensor(data.copy(), requires_grad=True)
    (x2 * 2.0).sum().backward()
    (x2 * x2).sum().backward()

    np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-10)


@given(finite_arrays)
@settings(**SETTINGS)
def test_tanh_gradient_bounded(data):
    x = Tensor(data.copy(), requires_grad=True)
    x.tanh().sum().backward()
    assert np.all(x.grad <= 1.0 + 1e-12)
    assert np.all(x.grad >= 0.0)


@given(finite_arrays)
@settings(**SETTINGS)
def test_relu_plus_negated_relu_is_identity_gradient(data):
    # relu(x) - relu(-x) == x, so the gradient must be (close to) ones.
    data = data[np.abs(data) > 1e-6]            # avoid the kink at 0
    if data.size == 0:
        return
    x = Tensor(data.copy(), requires_grad=True)
    (x.relu() - (-x).relu()).sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(data), atol=1e-12)


@given(finite_arrays)
@settings(**SETTINGS)
def test_reshape_preserves_sum_and_gradient(data):
    x = Tensor(data.copy(), requires_grad=True)
    flat = x.reshape(-1)
    assert float(flat.sum().data) == float(data.sum())
    flat.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(data))


@given(arrays(dtype=np.float64, shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
              elements=st.floats(-10, 10, allow_nan=False)))


@settings(**SETTINGS)
def test_softmax_output_is_distribution(data):
    out = F.softmax(Tensor(data), axis=-1).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


@given(arrays(dtype=np.float64, shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
              elements=st.floats(-5, 5, allow_nan=False)),
       arrays(dtype=np.float64, shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
              elements=st.floats(-5, 5, allow_nan=False)))


@settings(**SETTINGS)
def test_matmul_transpose_identity(a, b):
    # (A B)^T == B^T A^T, and gradients agree.
    if a.shape[1] != b.shape[0]:
        b = b.T
        if a.shape[1] != b.shape[0]:
            return
    ta1 = Tensor(a.copy(), requires_grad=True)
    tb1 = Tensor(b.copy(), requires_grad=True)
    left = (ta1 @ tb1).transpose()
    left.sum().backward()

    ta2 = Tensor(a.copy(), requires_grad=True)
    tb2 = Tensor(b.copy(), requires_grad=True)
    right = tb2.transpose() @ ta2.transpose()
    right.sum().backward()

    np.testing.assert_allclose(left.data, right.data, atol=1e-10)
    np.testing.assert_allclose(ta1.grad, ta2.grad, atol=1e-10)
    np.testing.assert_allclose(tb1.grad, tb2.grad, atol=1e-10)


@given(finite_arrays)
@settings(**SETTINGS)
def test_concat_split_roundtrip(data):
    x = Tensor(data.copy(), requires_grad=True)
    doubled = F.concat([x, x], axis=0)
    first, second = F.split(doubled, 2, axis=0)
    np.testing.assert_allclose(first.data, data)
    np.testing.assert_allclose(second.data, data)
    (first + second).sum().backward()
    np.testing.assert_allclose(x.grad, np.full_like(data, 2.0))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_detach_blocks_gradient(seed):
    data = np.random.default_rng(seed).normal(size=(3,))
    x = Tensor(data, requires_grad=True)
    y = x * 2
    z = y.detach() * 3 + x
    z.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones(3))


# --------------------------------------------------------------------- #
# F.einsum == np.einsum: the GEMM plan and the np.einsum fallback
# --------------------------------------------------------------------- #
_FALLBACK_KINDS = ("unit_contracted", "no_contracted", "no_free_a",
                   "no_free_b")


@st.composite
def einsum_cases(draw, gemm: bool):
    """Two-operand subscripts mixing batch, contracted and free indices.

    ``gemm=True`` draws contractions the GEMM plan must take (a contracted
    index longer than 1, a free index on each side); ``gemm=False`` draws
    one of the shapes that must fall back to ``np.einsum``.  Sizes include
    1 and the index order within each operand and the output is shuffled.
    """
    letters = iter("abcdefghijklmnopqrstuvwxyz")

    def group(min_len, max_len, min_size=1, max_size=3):
        count = draw(st.integers(min_len, max_len))
        return [(next(letters), draw(st.integers(min_size, max_size)))
                for _ in range(count)]

    batch = group(0, 2)
    if gemm:
        contracted = group(1, 1, 2, 4) + group(0, 1)
        free_a, free_b = group(1, 2), group(1, 2)
    else:
        kind = draw(st.sampled_from(_FALLBACK_KINDS))
        contracted = {"unit_contracted": lambda: group(1, 2, 1, 1),
                      "no_contracted": lambda: []}.get(
                          kind, lambda: group(1, 2))()
        free_a = [] if kind == "no_free_a" else group(int(not contracted), 2)
        free_b = [] if kind == "no_free_b" else group(int(not contracted), 2)
    a_idx = draw(st.permutations(batch + free_a + contracted))
    b_idx = draw(st.permutations(batch + contracted + free_b))
    out_idx = draw(st.permutations(batch + free_a + free_b))

    def sub(indices):
        return "".join(name for name, _ in indices)

    return (f"{sub(a_idx)},{sub(b_idx)}->{sub(out_idx)}",
            tuple(size for _, size in a_idx),
            tuple(size for _, size in b_idx))


def _operand(rng, shape, layout):
    """Random array of ``shape``, contiguous, transposed or sliced."""
    if layout == "transposed":
        return rng.normal(size=shape[::-1]).T
    if layout == "sliced":
        return rng.normal(size=shape[:-1] + (2 * shape[-1],))[..., ::2]
    return rng.normal(size=shape)


def _assert_close(actual, expected, bound):
    # Summation order differs between BLAS and np.einsum; scale the
    # absolute slack by the largest sum of |products| behind an entry.
    np.testing.assert_allclose(actual, expected, rtol=1e-12,
                               atol=1e-12 * (np.max(bound, initial=0) + 1))


@pytest.mark.parametrize("gemm", [True, False], ids=["gemm", "fallback"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_einsum_matches_numpy_forward_and_gradients(gemm, data):
    subscripts, shape_a, shape_b = data.draw(einsum_cases(gemm))
    assert (K.einsum_plan(subscripts, shape_a, shape_b).gemm
            is not None) is gemm
    layouts = st.sampled_from(["contiguous", "transposed", "sliced"])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    a = _operand(rng, shape_a, data.draw(layouts))
    b = _operand(rng, shape_b, data.draw(layouts))

    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = F.einsum(subscripts, ta, tb)
    g = rng.normal(size=out.shape)
    out.backward(g)

    lhs, out_sub = subscripts.split("->")
    a_sub, b_sub = lhs.split(",")
    grad_a, grad_b = (f"{out_sub},{b_sub}->{a_sub}",
                      f"{out_sub},{a_sub}->{b_sub}")
    _assert_close(out.data, np.einsum(subscripts, a, b),
                  np.einsum(subscripts, abs(a), abs(b)))
    _assert_close(ta.grad, np.einsum(grad_a, g, b),
                  np.einsum(grad_a, abs(g), abs(b)))
    _assert_close(tb.grad, np.einsum(grad_b, g, a),
                  np.einsum(grad_b, abs(g), abs(a)))
    assert ta.grad.shape == a.shape and tb.grad.shape == b.shape


# --------------------------------------------------------------------- #
# im2col / col2im adjoint identity
# --------------------------------------------------------------------- #
@st.composite
def conv_geometries(draw):
    """Random kernel, stride, dilation and zero padding with ≥ 1 output."""
    kernel = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dilation = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    spatial = []
    for k, d, p in zip(kernel, dilation, padding):
        least = max(1, d * (k - 1) + 1 - 2 * p)
        spatial.append(draw(st.integers(least, least + 5)))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), *spatial)
    return shape, kernel, stride, dilation, padding


@given(geometry=conv_geometries(), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_col2im_is_the_adjoint_of_im2col(geometry, seed):
    """<im2col(pad(x)), c> == <x, unpad(col2im(c))> for strided,
    dilated and padded geometries."""
    shape, kernel, stride, dilation, (ph, pw) = geometry
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols, _, _ = K.im2col(padded, kernel, stride, dilation)
    c = rng.normal(size=cols.shape)
    scattered = K.col2im(c.reshape(shape[0], shape[1],
                                   kernel[0] * kernel[1], -1),
                         padded.shape, kernel, stride, dilation)
    height, width = shape[2:]
    lhs = np.vdot(cols, c)
    rhs = np.vdot(x, scattered[:, :, ph:ph + height, pw:pw + width])
    bound = np.vdot(abs(cols), abs(c))
    assert abs(lhs - rhs) <= 1e-10 * max(bound, 1e-300)


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "time-sliced"])
@given(geometry=conv_geometries(), seed=st.integers(0, 2 ** 31 - 1),
       offset=st.integers(1, 3))


@settings(max_examples=60, deadline=None)
def test_strided_im2col_equals_index_gather(layout, geometry, seed, offset):
    """The strided window gather is bitwise the index-grid gather, for
    contiguous inputs and for views with arbitrary strides."""
    shape, kernel, stride, dilation, (ph, pw) = geometry
    rng = np.random.default_rng(seed)
    batch, channels, height, width = shape
    padded = (batch, channels, height + 2 * ph, width + 2 * pw)
    if layout == "contiguous":
        x = rng.normal(size=padded)
    elif layout == "transposed":        # (B, W, H, C) storage, read as NCHW
        x = rng.normal(size=padded[::-1]).transpose(3, 2, 1, 0)
    else:                               # x[:, :, :, d:], as Graph-WaveNet
        x = rng.normal(size=padded[:3] + (padded[3] + offset,))
        x = x[:, :, :, offset:]
    assert x.shape == padded
    cols, out_h, out_w = K.im2col(x, kernel, stride, dilation)
    expected, ref_h, ref_w = reference.im2col(x, kernel, stride, dilation)
    assert (out_h, out_w) == (ref_h, ref_w)
    assert cols.shape == expected.shape
    np.testing.assert_array_equal(cols, expected)
