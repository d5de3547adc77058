"""Interior nodes borrow their first gradient; nothing aliases wrongly.

``Node.accumulate`` stores an interior node's first contribution
without a copy when it is a C-contiguous array of the node's dtype.  These
tests pin the rules that make that safe: a borrowed buffer is never
written, a second contribution gets a fresh buffer, leaves always copy,
and the seed handed to ``backward`` is never aliased.
"""

import numpy as np

from repro.nn import Parameter, Tensor, reference

rng = np.random.default_rng(11)


def test_x_plus_x_sums_without_touching_the_shared_gradient():
    leaf = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = leaf * 2.0                      # interior
    y = x + x
    seed = rng.normal(size=y.shape)
    y.backward(seed)
    np.testing.assert_array_equal(y.grad, seed)
    np.testing.assert_array_equal(x.grad, seed + seed)
    np.testing.assert_array_equal(leaf.grad, (seed + seed) * 2.0)
    assert not np.shares_memory(x.grad, y.grad)


def test_node_consumed_by_three_ops():
    leaf = Tensor(rng.normal(size=(5,)), requires_grad=True)
    h = leaf * 3.0
    a, b, c = h * 2.0, h.reshape(5, 1), h + 1.0
    out = a.sum() + b.sum() + (c * c).sum()
    out.backward()
    expected_h = 2.0 + 1.0 + 2.0 * (leaf.data * 3.0 + 1.0)
    np.testing.assert_allclose(h.grad, expected_h, rtol=1e-15)
    np.testing.assert_allclose(leaf.grad, 3.0 * expected_h, rtol=1e-15)
    # The consumers' own gradients are intact.
    np.testing.assert_array_equal(a.grad, np.ones(5))
    np.testing.assert_array_equal(b.grad, np.ones((5, 1)))
    for consumer in (a, b, c):
        assert not np.shares_memory(h.grad, consumer.grad)


def test_two_leaves_fed_one_array_own_separate_buffers():
    a = Parameter(rng.normal(size=(4,)))
    b = Parameter(rng.normal(size=(4,)))
    seed = rng.normal(size=(4,))
    (a + b).backward(seed)
    assert not np.shares_memory(a.grad, b.grad)
    norm = reference.clip_grad_norm([a, b], max_norm=0.5)
    np.testing.assert_allclose(norm, np.sqrt(2.0) * np.linalg.norm(seed))
    np.testing.assert_allclose(a.grad, seed * 0.5 / norm)
    np.testing.assert_allclose(b.grad, seed * 0.5 / norm)


def test_backward_never_aliases_or_mutates_the_seed():
    leaf = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h = leaf * 1.5
    y = h.reshape(2, 3) + h          # h gets two contributions
    seed = rng.normal(size=y.shape)
    kept = seed.copy()
    y.backward(seed)
    np.testing.assert_array_equal(seed, kept)
    assert not np.shares_memory(y.grad, seed)
    np.testing.assert_array_equal(leaf.grad, 2.0 * 1.5 * kept)


def _graph(data):
    leaf = Tensor(data, requires_grad=True)
    h = leaf.tanh()
    out = (h * h).sum() + h.reshape(-1).sum() + (h.T * 2.0).sum()
    return leaf, out


def test_repeated_backward_matches_a_fresh_graph():
    data = rng.normal(size=(3, 4))
    fresh_leaf, fresh_out = _graph(data)
    fresh_out.backward()
    leaf, out = _graph(data)
    out.backward()
    first = leaf.grad.copy()
    leaf.zero_grad()
    out.backward()
    np.testing.assert_array_equal(first, fresh_leaf.grad)
    np.testing.assert_array_equal(leaf.grad, fresh_leaf.grad)


def test_contiguous_gradient_is_borrowed():
    leaf = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    h = leaf * 2.0
    out = h.reshape(3, 4)
    out.backward(np.ones((3, 4)))
    assert np.shares_memory(h.grad, out.grad)
    # A leaf fed the same kind of array copies it.
    assert not np.shares_memory(leaf.grad, h.grad)


def test_transposed_gradient_is_copied():
    leaf = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    h = leaf * 2.0
    out = h.T
    out.backward(rng.normal(size=(4, 3)))
    assert not np.shares_memory(h.grad, out.grad)
    np.testing.assert_array_equal(h.grad, out.grad.T)


def test_stride_zero_gradient_is_copied():
    h = Tensor(rng.normal(size=(3, 4)), requires_grad=True) * 1.0
    g = np.broadcast_to(rng.normal(size=(1, 4)), (3, 4))
    h._node.accumulate(g)
    assert h.grad.flags.writeable
    assert not np.shares_memory(h.grad, g)
    np.testing.assert_array_equal(h.grad, g)


def test_wrong_dtype_gradient_is_copied_to_the_node_dtype():
    h = Tensor(rng.normal(size=(4,)), requires_grad=True) * 1.0
    g = np.ones(4, dtype=np.float32)
    h._node.accumulate(g)
    assert h.grad.dtype == np.float64
    assert not np.shares_memory(h.grad, g)
