"""Functional operations on :class:`~repro.nn.tensor.Tensor`.

These are the ops that do not fit naturally as tensor methods: multi-input
ops (``concat``, ``stack``, ``einsum``), view fan-outs (``split``,
``unbind`` — shared-buffer backward), the normalised activation
``softmax``, fused layer ops (``linear``, ``support_conv``,
``gru_update``, ``attention`` — one tape node each), and the 2-D
convolution kernel (im2col-based, backed by :mod:`repro.nn.kernels`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernels as _kernels
# Imported after .tensor so the obs package (whose metrics module pulls in
# the profiler, and with it the tensor module) never re-enters a partially
# initialised import; kernels.py itself stays obs-free for the same reason.
from .tensor import Tensor, is_grad_enabled, unbroadcast
from ..obs.spans import span

__all__ = [
    "softmax", "concat", "stack", "split", "unbind", "einsum", "conv2d",
    "linear", "support_conv", "gru_update", "attention",
]

#: Score added where an attention mask is False (excluded from the softmax).
MASKED_SCORE = -1e9

#: Bytes of attention weights computed at once: :func:`attention` works
#: through its first leading axis in chunks of at most this size.
ATTENTION_CHUNK_BYTES = 1 << 20


def _parent_nodes(x: Tensor, weight: Tensor, bias: Tensor | None):
    """``(x, weight, bias)`` nodes of a layer op, plus the bias shape; a
    constant operand (or an absent bias) gives ``None``."""
    if bias is None:
        return x._node, weight._node, None, None
    return x._node, weight._node, bias._node, bias.shape


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted_data = x.data - x.data.max(axis=axis, keepdims=True)
    exp_data = np.exp(shifted_data)
    out_data = exp_data / exp_data.sum(axis=axis, keepdims=True)
    node = x._node

    def backward(g: np.ndarray) -> None:
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        node.accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward, "softmax")


# --------------------------------------------------------------------- #
# multi-input ops
# --------------------------------------------------------------------- #
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    nodes = [t._node for t in tensors]

    def backward(g: np.ndarray) -> None:
        for node, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            if node is None:
                continue
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            node.accumulate(g[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    nodes = [t._node for t in tensors]

    def backward(g: np.ndarray) -> None:
        for i, node in enumerate(nodes):
            if node is not None:
                node.accumulate(np.take(g, i, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward, "stack")


def _slice_views(x: Tensor, indices: Sequence[tuple], op: str) -> list[Tensor]:
    """Basic-index views of ``x`` whose gradients share one buffer.

    Naively, N views of one tensor cost N full-size zero allocations on the
    backward pass (one per ``getitem`` node).  Here every view writes its
    gradient slice into a single shared buffer held by an *anchor* node
    that sits between ``x`` and the views; reverse-topological order
    guarantees all views run before the anchor, which then hands the
    buffer to ``x`` in one pass.
    """
    if not x.requires_grad or not is_grad_enabled():
        return [x[idx] for idx in indices]
    node = x._node

    def anchor_backward(g: np.ndarray) -> None:
        node.accumulate(g)

    anchor = Tensor._make(x.data, (x,), anchor_backward, op)
    shared = anchor._node
    shape, dtype = x.shape, x.data.dtype
    views = []
    for idx in indices:
        def view_backward(g: np.ndarray, idx=idx) -> None:
            if shared.grad is None:
                shared.grad = np.zeros(shape, dtype=dtype)
            shared.grad[idx] += g

        views.append(Tensor._make(x.data[idx], (anchor,), view_backward, op))
    return views


def split(x: Tensor, sections: int, axis: int = 0) -> list[Tensor]:
    """Split into ``sections`` equal chunks along ``axis``.

    The chunks' backward passes accumulate through one shared buffer (see
    :func:`_slice_views`), so a split costs a single full-size gradient
    allocation instead of one per chunk — and never hits ``np.add.at``.
    """
    if x.shape[axis] % sections != 0:
        raise ValueError(
            f"axis {axis} of size {x.shape[axis]} is not divisible by {sections}")
    size = x.shape[axis] // sections
    prefix = (slice(None),) * (axis % x.ndim)
    indices = [prefix + (slice(i * size, (i + 1) * size),)
               for i in range(sections)]
    return _slice_views(x, indices, "split")


def unbind(x: Tensor, axis: int = 0) -> list[Tensor]:
    """Unpack ``x`` into views along ``axis`` (like ``torch.unbind``).

    ``unbind(x, 1)[t]`` equals ``x[:, t]``; the recurrent stacks and
    seq2seq codecs use it so that T per-step slices cost one shared
    gradient buffer on the backward pass instead of T full-size scatters.
    """
    axis = range(x.ndim)[axis]          # normalises and bounds-checks
    prefix = (slice(None),) * axis
    indices = [prefix + (i,) for i in range(x.shape[axis])]
    return _slice_views(x, indices, "unbind")


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum with autograd, run as one BLAS GEMM.

    The forward contraction and both gradients (``out,b->a`` and
    ``out,a->b``) go through :func:`repro.nn.kernels.einsum`, which sorts
    the indices into batch, contracted and free ones and runs a cached
    ``transpose -> reshape -> matmul`` plan; contractions without a GEMM
    (no contracted index longer than 1, or no free index on one side)
    fall back to ``np.einsum``.  Every index of an operand must appear in
    the output or the other operand, no index may repeat within an operand
    or the output, and a shared index must have the same size in both
    operands (no size-1 broadcasting, which would give a gradient of the
    wrong shape); violations raise ``ValueError`` naming the index.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    # Validates the subscripts against both shapes before any work.
    (a_sub, b_sub), out_sub, _ = _kernels.einsum_plan(subscripts, a.shape,
                                                      b.shape)
    out_data = _kernels.einsum(subscripts, a.data, b.data)
    a_node, b_node = a._node, b._node
    # Each operand's gradient contracts the other operand.
    a_data = a.data if b_node is not None else None
    b_data = b.data if a_node is not None else None

    def backward(g: np.ndarray) -> None:
        if a_node is not None:
            a_node.accumulate(_kernels.einsum(
                f"{out_sub},{b_sub}->{a_sub}", g, b_data))
        if b_node is not None:
            b_node.accumulate(_kernels.einsum(
                f"{out_sub},{a_sub}->{b_sub}", g, a_data))

    return Tensor._make(out_data, (a, b), backward, "einsum")


# --------------------------------------------------------------------- #
# fused layer ops: one tape node each.  The forward makes the numpy calls
# of the composition it replaces (kept in repro.nn.reference), in the same
# order, so its output is bitwise that composition's; the backward closure
# holds only the arrays it reads, not every intermediate product, and an
# operand's array only when another operand's gradient reads it.
# --------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x Wᵀ + b`` over the last axis: ``x`` (..., in), ``weight``
    (out, in), ``bias`` (out,) or None.

    The bias is added in place into the fresh GEMM product.  The closure
    reads ``x`` and ``W`` only; the weight gradient is one GEMM over all
    leading axes.
    """
    w = weight.data
    out_data = x.data @ w.T
    if bias is not None:
        out_data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    x_node, w_node, b_node, b_shape = _parent_nodes(x, weight, bias)
    out_features, in_features = w.shape
    x_data = x.data if w_node is not None else None
    w_data = w if x_node is not None else None

    def backward(g: np.ndarray) -> None:
        if b_node is not None:
            b_node.accumulate(unbroadcast(g, b_shape))
        if w_node is not None:
            x_mat = x_data.reshape(-1, in_features)
            w_node.accumulate((x_mat.T @ g.reshape(-1, out_features)).T)
        if x_node is not None:
            x_node.accumulate(g @ w_data)

    return Tensor._make(out_data, parents, backward, "linear")


def support_conv(x: Tensor, supports: np.ndarray, identity: Sequence[bool],
                 weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Graph convolution ``Σ_k (S_k x) W_k + b``.

    ``x``: (..., N, C_in); ``supports``: constant (K, N, N) array;
    ``weight``: (K, C_in, C_out); ``bias``: (C_out,) or None.
    ``identity[k]`` marks ``S_k`` as exactly the identity, whose term is
    ``x W_k`` with no propagation matmul.  The closure keeps no
    per-support product, running sum or bias-add output, and not the
    propagated inputs ``S_k x`` either: the backward propagates the output
    gradient instead.
    """
    w = weight.data
    out_data = None
    for k, support in enumerate(supports):
        propagated = x.data if identity[k] else support @ x.data
        term = propagated @ w[k]
        if out_data is None:
            out_data = term
        else:
            out_data += term
    if bias is not None:
        out_data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    x_node, w_node, b_node, b_shape = _parent_nodes(x, weight, bias)
    w_shape = w.shape
    x_data = x.data if w_node is not None else None
    w_data = w if x_node is not None else None

    def backward(g: np.ndarray) -> None:
        if b_node is not None:
            b_node.accumulate(unbroadcast(g, b_shape))
        if w_node is None and x_node is None:
            return
        # S_kᵀ acts on the node axis and W_kᵀ on the channel axis, so they
        # commute: one propagated gradient r_k = S_kᵀ g gives both the
        # weight gradient xᵀ r_k and the input term r_k W_kᵀ.
        if w_node is not None:
            x_mat = x_data.reshape(-1, w_shape[1])
            gw = np.empty(w_shape, dtype=g.dtype)
        gx = None
        for k, support in enumerate(supports):
            r = g if identity[k] else support.T @ g         # (..., N, Cout)
            if w_node is not None:
                np.matmul(x_mat.T, r.reshape(-1, w_shape[2]), out=gw[k])
            if x_node is not None:
                term = r @ w_data[k].T
                if gx is None:
                    gx = term
                else:
                    gx += term
        if w_node is not None:
            w_node.accumulate(gw)
        if x_node is not None:
            x_node.accumulate(gx)

    return Tensor._make(out_data, parents, backward, "support_conv")


def gru_update(u: Tensor, h: Tensor, c: Tensor) -> Tensor:
    """The gated blend ``u·h + (1 − u)·c`` of a GRU step.

    The closure reads ``u`` (for the gradients of ``h`` and ``c``) and
    ``h`` and ``c`` (for the gradient of ``u``) instead of the three
    products and the sum the composition leaves on the tape.
    """
    shape = np.broadcast_shapes(u.shape, h.shape, c.shape)
    dtype = np.result_type(u.data, h.data, c.data)
    out_data = np.multiply(u.data, h.data, out=np.empty(shape, dtype))
    rest = np.subtract(1.0, u.data, out=np.empty(shape, dtype))
    rest *= c.data
    out_data += rest
    u_node, h_node, c_node = u._node, h._node, c._node
    u_shape, h_shape, c_shape = u.shape, h.shape, c.shape
    u_data = (u.data if h_node is not None or c_node is not None
              else None)
    h_data, c_data = ((h.data, c.data) if u_node is not None
                      else (None, None))

    def backward(g: np.ndarray) -> None:
        if u_node is not None:
            gu = g * h_data
            gu -= g * c_data
            u_node.accumulate(unbroadcast(gu, u_shape))
        if h_node is not None:
            h_node.accumulate(unbroadcast(g * u_data, h_shape))
        if c_node is not None:
            c_node.accumulate(unbroadcast(g * (1.0 - u_data), c_shape))

    return Tensor._make(out_data, (u, h, c), backward, "gru_update")


def _attention_weights(q: np.ndarray, k: np.ndarray, mask: np.ndarray | None,
                       scale: float, top: np.ndarray | None = None,
                       total: np.ndarray | None = None):
    """``(weights, top, total)``: ``softmax(q kᵀ·scale [+ mask])`` of one
    chunk, with the row max and row sum it was normalised by.  Given the
    ``top`` and ``total`` a forward returned, the same numpy calls rebuild
    that forward's weights bitwise."""
    weights = q @ np.swapaxes(k, -1, -2)                  # (..., Lq, Lk)
    weights *= scale
    if mask is not None:
        kind = weights.dtype.type
        weights += np.where(mask, kind(0.0), kind(MASKED_SCORE))
    if top is None:
        top = _row_max(weights)
    weights -= top
    np.exp(weights, out=weights)
    if total is None:
        total = weights.sum(axis=-1, keepdims=True)
    weights /= total
    return weights, top, total


def _row_max(scores: np.ndarray) -> np.ndarray:
    """``scores.max(axis=-1, keepdims=True)``, bitwise (NaN included), as
    one ``np.maximum`` per column: a reduce over a short last axis pays a
    fixed cost for every row."""
    top = scores[..., :1].copy()
    for column in range(1, scores.shape[-1]):
        np.maximum(top, scores[..., column:column + 1], out=top)
    return top


def attention(q: Tensor, k: Tensor, v: Tensor,
              mask: np.ndarray | None = None) -> Tensor:
    """``softmax(q kᵀ/√d [+ mask]) v`` over the last two axes.

    ``q``: (..., L_q, d), ``k``: (..., L_k, d), ``v``: (..., L_k, d_v).
    ``mask`` is a boolean array broadcastable to the score shape; ``False``
    entries get :data:`MASKED_SCORE` and so drop out of the softmax.

    The work runs over the first leading axis in chunks whose weights take
    at most :data:`ATTENTION_CHUNK_BYTES` (one index at least).  Each
    index is an independent GEMM and row softmax, so the chunking changes
    no bit.  The closure keeps ``q``, ``k``, ``v`` and each chunk's row
    max and row sum, of shape ``(..., L_q, 1)``; backward rebuilds the
    weights one chunk at a time with the forward's numpy calls, so no
    ``(..., L_q, L_k)`` array lives between forward and backward.
    """
    # A Python float takes the scores' dtype; an np.float64 would upcast.
    scale = float(1.0 / np.sqrt(q.shape[-1]))
    q_data, k_data, v_data = q.data, k.data, v.data
    mask = None if mask is None else np.asarray(mask)
    weights_dtype = np.result_type(q_data, k_data)
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    rank = len(lead) + 2
    count = lead[0] if lead else 1
    row_bytes = (weights_dtype.itemsize * q.shape[-2] * k.shape[-2]
                 * int(np.prod(lead[1:])))
    step = max(1, ATTENTION_CHUNK_BYTES // max(1, row_bytes))
    chunks = [(start, min(start + step, count))
              for start in range(0, count, step)]

    def rows(a, start, stop):
        """``a``'s part of the chunk; all of it when ``a`` does not run
        along the chunked axis (broadcast, or of lower rank)."""
        if a is None or count == 1 or a.ndim < rank or a.shape[0] == 1:
            return a
        return a[start:stop]

    out_data = np.empty(lead + (q.shape[-2], v.shape[-1]),
                        np.result_type(weights_dtype, v_data))
    q_node, k_node, v_node = q._node, k._node, v._node
    saved = is_grad_enabled() and (q_node is not None or k_node is not None
                                   or v_node is not None)
    tops, totals = [], []
    for start, stop in chunks:
        weights, top, total = _attention_weights(
            rows(q_data, start, stop), rows(k_data, start, stop),
            rows(mask, start, stop), scale)
        np.matmul(weights, rows(v_data, start, stop),
                  out=rows(out_data, start, stop))
        del weights                 # before the next chunk's are built
        if saved:
            tops.append(top)
            totals.append(total)
    q_shape, v_shape = q.shape, v.shape
    k_swapped = (*k.shape[:-2], k.shape[-1], k.shape[-2])
    # d scores reads v; the weights are rebuilt from q and k.
    if q_node is None and k_node is None:
        v_data = None

    def backward(g: np.ndarray) -> None:
        gq = gk = gv = None
        if v_node is not None:
            gv = np.empty(lead + v_shape[-2:],
                          np.result_type(weights_dtype, g))
        if q_node is not None or k_node is not None:
            gs_dtype = np.result_type(g, v_data)
            if q_node is not None:
                gq = np.empty(lead + q_shape[-2:],
                              np.result_type(gs_dtype, k_data))
            if k_node is not None:
                gk = np.empty(lead + k_swapped[-2:],           # (..., d, Lk)
                              np.result_type(q_data, gs_dtype))
        for (start, stop), top, total in zip(chunks, tops, totals):
            q_part = rows(q_data, start, stop)
            k_part = rows(k_data, start, stop)
            g_part = rows(g, start, stop)
            weights, _, _ = _attention_weights(
                q_part, k_part, rows(mask, start, stop), scale, top, total)
            if gv is not None:
                np.matmul(np.swapaxes(weights, -1, -2), g_part,
                          out=rows(gv, start, stop))
            if gq is None and gk is None:
                del weights
                continue
            gs = g_part @ np.swapaxes(rows(v_data, start, stop), -1, -2)
            dot = (gs * weights).sum(axis=-1, keepdims=True)
            gs -= dot
            gs *= weights                                   # d scores
            gs *= scale
            if gq is not None:
                np.matmul(gs, k_part, out=rows(gq, start, stop))
            if gk is not None:
                np.matmul(np.swapaxes(q_part, -1, -2), gs,
                          out=rows(gk, start, stop))
            del weights, gs
        if gv is not None:
            v_node.accumulate(unbroadcast(gv, v_shape))
        if gq is not None:
            q_node.accumulate(unbroadcast(gq, q_shape))
        if gk is not None:
            k_node.accumulate(
                np.swapaxes(unbroadcast(gk, k_swapped), -1, -2))

    return Tensor._make(out_data, (q, k, v), backward, "attention")


# --------------------------------------------------------------------- #
# convolution (im2col — see repro.nn.kernels for the strided gather and
# the fast col2im scatter)
# --------------------------------------------------------------------- #
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: tuple[int, int] = (1, 1),
           padding: tuple[int, int] = (0, 0),
           dilation: tuple[int, int] = (1, 1)) -> Tensor:
    """2-D convolution.

    ``x``: (B, C_in, H, W); ``weight``: (C_out, C_in, kh, kw);
    ``bias``: (C_out,) or None.  Padding is symmetric zero padding.

    The patches come from :func:`repro.nn.kernels.im2col`'s strided window
    view (a free view for 1×1 kernels), the three matrix contractions are
    BLAS GEMMs (``np.matmul``), and the backward input scatter uses the
    vectorised :func:`repro.nn.kernels.col2im` (strided slice adds)
    rather than ``np.add.at``.
    """
    stride = (int(stride[0]), int(stride[1]))
    dilation = (int(dilation[0]), int(dilation[1]))
    if padding != (0, 0):
        x = x.pad(((0, 0), (0, 0), (padding[0], padding[0]),
                   (padding[1], padding[1])))
    batch, c_in, height, width = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input {c_in} vs weight {c_in_w}")

    with span("kernel/conv2d", batch=batch, kernel=(kh, kw)):
        cols_mat, out_h, out_w = _kernels.im2col(          # (B, CK, L)
            x.data, (kh, kw), stride, dilation)
        w_mat = weight.data.reshape(c_out, -1)                # (Cout, CK)
        out_data = np.matmul(w_mat, cols_mat)                # (B, Cout, L)
        if bias is not None:
            out_data += bias.data[None, :, None]      # a fresh GEMM product
        out_data = out_data.reshape(batch, c_out, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    x_node, w_node, b_node, _ = _parent_nodes(x, weight, bias)
    w_shape = weight.shape
    # The weight gradient reads the columns, the input gradient the weight.
    saved_cols = cols_mat if w_node is not None else None
    saved_w = w_mat if x_node is not None else None

    def backward(g: np.ndarray) -> None:
        with span("kernel/conv2d_backward", batch=batch, kernel=(kh, kw)):
            g_mat = g.reshape(batch, c_out, -1)              # (B, Cout, L)
            if w_node is not None:
                # One batched GEMM that reads both operands in their own
                # layouts (no transposed copies), then a sum over the batch.
                gw = np.matmul(g_mat, saved_cols.transpose(0, 2, 1))
                gw = gw.sum(axis=0)
                w_node.accumulate(gw.reshape(w_shape))
            if b_node is not None:
                b_node.accumulate(g_mat.sum(axis=(0, 2)))
            if x_node is None:
                # Raw data input: no column GEMM, no col2im scatter.
                return
            # input grad: scatter columns back
            g_cols = np.matmul(saved_w.T, g_mat)             # (B, CK, L)
            g_cols = g_cols.reshape(batch, c_in, kh * kw, -1)
            gx = _kernels.col2im(g_cols, (batch, c_in, height, width),
                                 (kh, kw), stride, dilation)
            x_node.accumulate(gx)

    return Tensor._make(out_data, parents, backward, "conv2d")
