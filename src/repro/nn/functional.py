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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted_data = x.data - x.data.max(axis=axis, keepdims=True)
    exp_data = np.exp(shifted_data)
    out_data = exp_data / exp_data.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward, "softmax")


# --------------------------------------------------------------------- #
# multi-input ops
# --------------------------------------------------------------------- #
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            t._accumulate(g[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

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

    def anchor_backward(g: np.ndarray) -> None:
        x._accumulate(g)

    anchor = Tensor._make(x.data, (x,), anchor_backward, op)
    shape, dtype = x.shape, x.data.dtype
    views = []
    for idx in indices:
        def view_backward(g: np.ndarray, idx=idx) -> None:
            if anchor.grad is None:
                anchor.grad = np.zeros(shape, dtype=dtype)
            anchor.grad[idx] += g

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

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_kernels.einsum(f"{out_sub},{b_sub}->{a_sub}", g,
                                          b.data))
        if b.requires_grad:
            b._accumulate(_kernels.einsum(f"{out_sub},{a_sub}->{b_sub}", g,
                                          a.data))

    return Tensor._make(out_data, (a, b), backward, "einsum")


# --------------------------------------------------------------------- #
# fused layer ops: one tape node each.  The forward makes the numpy calls
# of the composition it replaces (kept in repro.nn.reference), in the same
# order, so its output is bitwise that composition's; the backward closure
# holds only the arrays it reads, not every intermediate product.
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

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(unbroadcast(g, bias.shape))
        if weight.requires_grad:
            x_mat = x.data.reshape(-1, w.shape[1])
            weight._accumulate((x_mat.T @ g.reshape(-1, w.shape[0])).T)
        if x.requires_grad:
            x._accumulate(g @ w)

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

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(unbroadcast(g, bias.shape))
        if not (weight.requires_grad or x.requires_grad):
            return
        # S_kᵀ acts on the node axis and W_kᵀ on the channel axis, so they
        # commute: one propagated gradient r_k = S_kᵀ g gives both the
        # weight gradient xᵀ r_k and the input term r_k W_kᵀ.
        if weight.requires_grad:
            x_mat = x.data.reshape(-1, w.shape[1])
            gw = np.empty(w.shape, dtype=g.dtype)
        gx = None
        for k, support in enumerate(supports):
            r = g if identity[k] else support.T @ g         # (..., N, Cout)
            if weight.requires_grad:
                np.matmul(x_mat.T, r.reshape(-1, w.shape[2]), out=gw[k])
            if x.requires_grad:
                term = r @ w[k].T
                if gx is None:
                    gx = term
                else:
                    gx += term
        if weight.requires_grad:
            weight._accumulate(gw)
        if x.requires_grad:
            x._accumulate(gx)

    return Tensor._make(out_data, parents, backward, "support_conv")


def gru_update(u: Tensor, h: Tensor, c: Tensor) -> Tensor:
    """The gated blend ``u·h + (1 − u)·c`` of a GRU step.

    The closure reads ``u``, ``h`` and ``c`` — arrays their own nodes hold
    anyway — instead of the three products and the sum the composition
    leaves on the tape.
    """
    shape = np.broadcast_shapes(u.shape, h.shape, c.shape)
    dtype = np.result_type(u.data, h.data, c.data)
    out_data = np.multiply(u.data, h.data, out=np.empty(shape, dtype))
    rest = np.subtract(1.0, u.data, out=np.empty(shape, dtype))
    rest *= c.data
    out_data += rest

    def backward(g: np.ndarray) -> None:
        if u.requires_grad:
            gu = g * h.data
            gu -= g * c.data
            u._accumulate(unbroadcast(gu, u.shape))
        if h.requires_grad:
            h._accumulate(unbroadcast(g * u.data, h.shape))
        if c.requires_grad:
            c._accumulate(unbroadcast(g * (1.0 - u.data), c.shape))

    return Tensor._make(out_data, (u, h, c), backward, "gru_update")


def attention(q: Tensor, k: Tensor, v: Tensor,
              mask: np.ndarray | None = None) -> Tensor:
    """``softmax(q kᵀ/√d [+ mask]) v`` over the last two axes.

    ``q``: (..., L_q, d), ``k``: (..., L_k, d), ``v``: (..., L_k, d_v).
    ``mask`` is a boolean array broadcastable to the score shape; ``False``
    entries get :data:`MASKED_SCORE` and so drop out of the softmax.  The
    scores are scaled, masked and normalised in place, and the closure
    keeps only the attention weights beside ``q``, ``k`` and ``v``.
    """
    # A Python float takes the scores' dtype; an np.float64 would upcast.
    scale = float(1.0 / np.sqrt(q.shape[-1]))
    weights = q.data @ np.swapaxes(k.data, -1, -2)          # (..., Lq, Lk)
    weights *= scale
    if mask is not None:
        kind = weights.dtype.type
        weights += np.where(mask, kind(0.0), kind(MASKED_SCORE))
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out_data = weights @ v.data

    def backward(g: np.ndarray) -> None:
        if v.requires_grad:
            v._accumulate(unbroadcast(np.swapaxes(weights, -1, -2) @ g,
                                      v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        gs = g @ np.swapaxes(v.data, -1, -2)                # d weights
        dot = (gs * weights).sum(axis=-1, keepdims=True)
        gs -= dot
        gs *= weights                                       # d scores
        gs *= scale
        if q.requires_grad:
            q._accumulate(unbroadcast(gs @ k.data, q.shape))
        if k.requires_grad:
            gk = np.swapaxes(q.data, -1, -2) @ gs           # (..., d, Lk)
            k_swapped = (*k.shape[:-2], k.shape[-1], k.shape[-2])
            k._accumulate(np.swapaxes(unbroadcast(gk, k_swapped), -1, -2))

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

    def backward(g: np.ndarray) -> None:
        with span("kernel/conv2d_backward", batch=batch, kernel=(kh, kw)):
            g_mat = g.reshape(batch, c_out, -1)              # (B, Cout, L)
            if weight.requires_grad:
                # One batched GEMM that reads both operands in their own
                # layouts (no transposed copies), then a sum over the batch.
                gw = np.matmul(g_mat, cols_mat.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(gw.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(g_mat.sum(axis=(0, 2)))
            if not x.requires_grad:
                # Raw data input: no column GEMM, no col2im scatter.
                return
            # input grad: scatter columns back
            g_cols = np.matmul(w_mat.T, g_mat)               # (B, CK, L)
            g_cols = g_cols.reshape(batch, c_in, kh * kw, -1)
            gx = _kernels.col2im(g_cols, (batch, c_in, height, width),
                                 (kh, kw), stride, dilation)
            x._accumulate(gx)

    return Tensor._make(out_data, parents, backward, "conv2d")
