"""The saved-tensor rule: the tape keeps only what backward reads.

A backward closure captures the arrays its own gradients read and the
*nodes* of its parents, never a parent ``Tensor``.  So an interior output
no closure reads is freed once the caller drops it, and under
``backward(free_graph=True)`` each closure's saved arrays are released as
soon as it has run.  The checks use weak references to the arrays.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, functional as F, no_grad

rng = np.random.default_rng(5)


def test_preactivation_is_freed_and_the_activation_kept_until_backward():
    x = Tensor(rng.normal(size=(4, 3)))
    weight = Parameter(rng.normal(size=(3, 5)))
    bias = Parameter(rng.normal(size=(5,)))
    pre = x @ weight + bias
    pre_data = weakref.ref(pre.data)
    y = pre.sigmoid()
    out_data = weakref.ref(y.data)
    loss = y.sum()
    del pre, y
    assert pre_data() is None           # no closure reads the pre-activation
    assert out_data() is not None       # sigmoid's backward reads its output
    loss.backward(free_graph=True)
    assert out_data() is None
    assert weight.grad is not None and bias.grad is not None


#: Ops whose backward reads only shapes and indices.
SHAPE_ONLY = {
    "add": lambda t: t + 1.0,
    "getitem": lambda t: t[1:, ::2],
    "concat": lambda t: F.concat([t, Tensor(np.ones((2, 6)))], axis=0),
    "reshape": lambda t: t.reshape(-1),
    "pad": lambda t: t.pad(((1, 0), (0, 2))),
}


@pytest.mark.parametrize("name", list(SHAPE_ONLY))
def test_op_keeps_no_parent_data(name):
    leaf = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    # A view object as the parent's array: a view output's ``base`` is
    # the owning array, so only a closure could keep this object alive.
    parent = (leaf * 2.0)[:, :]
    parent_data = weakref.ref(parent.data)
    out = SHAPE_ONLY[name](parent)
    del parent
    assert parent_data() is None
    out.sum().backward()
    np.testing.assert_array_equal(leaf.grad != 0, leaf.grad == 2.0)
    assert (leaf.grad == 2.0).any()


def _saved_columns(conv_out: Tensor, shape: tuple[int, ...]):
    """A weak reference to the one array of ``shape`` the conv closure
    saved: its im2col columns."""
    closure = conv_out._backward
    saved = [cell.cell_contents for cell in closure.__closure__
             if isinstance(cell.cell_contents, np.ndarray)
             and cell.cell_contents.shape == shape]
    assert len(saved) == 1
    return weakref.ref(saved[0])


@pytest.mark.parametrize("free_graph", [True, False])
def test_saved_columns_freed_before_the_next_closure_runs(free_graph):
    batch, c_in, height, width = 2, 3, 4, 8
    x = Tensor(rng.normal(size=(batch, c_in, height, width)),
               requires_grad=True)
    weight = Parameter(rng.normal(size=(5, c_in, 1, 3)))
    h = x * 1.0
    out = F.conv2d(h, weight)            # (1, 3): columns are a copy
    columns = _saved_columns(out, (batch, c_in * 3, height * (width - 2)))
    seen = []
    upstream = h._backward

    def probe(g):
        seen.append(columns() is None)
        upstream(g)

    h._backward = probe                  # runs right after the conv's
    out.sum().backward(free_graph=free_graph)
    # A kept graph holds the columns for a second backward.
    assert seen == [free_graph]
    assert (columns() is None) == free_graph
    assert x.grad is not None and weight.grad is not None


def test_kept_graph_replays_and_a_freed_graph_refuses():
    x = Parameter(rng.normal(size=(4, 3)))
    weight = Parameter(rng.normal(size=(3, 5)))
    hidden = (x @ weight).sigmoid()
    loss = (F.concat([hidden, hidden * 2.0], axis=1) ** 2).sum()
    loss.backward()
    first = x.grad.copy(), weight.grad.copy()
    x.zero_grad()
    weight.zero_grad()
    loss.backward(free_graph=True)
    np.testing.assert_array_equal(x.grad, first[0])
    np.testing.assert_array_equal(weight.grad, first[1])
    assert loss._node.parents == () and hidden._node.parents == ()
    with pytest.raises(RuntimeError, match="freed graph"):
        loss.backward()
    with pytest.raises(RuntimeError, match="freed graph"):
        hidden.backward(np.ones(hidden.shape))


def _closure_arrays(closure):
    """Every array a closure's cells hold, directly or in a list/tuple."""
    found = []
    for cell in closure.__closure__ or ():
        pending = [cell.cell_contents]
        while pending:
            item = pending.pop()
            if isinstance(item, np.ndarray):
                found.append(item)
            elif isinstance(item, (list, tuple)):
                pending.extend(item)
    return found


@pytest.mark.parametrize("masked", [False, True])
def test_attention_keeps_no_weights(masked):
    length_q, length_k = 3, 5
    q = Tensor(rng.normal(size=(4, 2, length_q, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 2, length_k, 6)), requires_grad=True)
    v = Tensor(rng.normal(size=(4, 2, length_k, 7)), requires_grad=True)
    mask = rng.random((length_q, length_k)) > 0.3 if masked else None
    out = F.attention(q, k, v, mask=mask)
    saved = _closure_arrays(out._backward)
    assert any(a.shape[-2:] == (length_q, 1) for a in saved)  # row max, sum
    # The caller's mask is the only (L_q, L_k) array the closure may hold.
    assert [a for a in saved if a.shape[-2:] == (length_q, length_k)
            and a is not mask] == []
    out.sum().backward()
    assert q.grad is not None and k.grad is not None and v.grad is not None


def test_attention_forward_never_holds_the_whole_weights(monkeypatch):
    lead, length = 12, 128
    weight_bytes = lead * length * length * 8
    monkeypatch.setattr(F, "ATTENTION_CHUNK_BYTES", weight_bytes // 4)
    q, k, v = (Tensor(rng.normal(size=(lead, length, 4))) for _ in range(3))
    with no_grad():
        tracemalloc.start()
        try:
            out = F.attention(q, k, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.shape == (lead, length, 4)
    # Four chunks: the peak holds one chunk's weights (384 KiB), numpy's
    # 64 KiB ufunc buffer and the output, never the whole 1.5 MiB.
    assert peak < weight_bytes // 2
