"""The pre-optimisation engine: the oracle the fast kernels are held to.

The equivalence tests compare the production ops against these, and
``repro bench kernels`` and ``repro bench optim`` measure their speedups
from them.  Production code
never imports this module.  :func:`im2col` gathers with freshly built
index grids, :func:`col2im` scatters with ``np.add.at``, :func:`conv2d`
runs both around three ``np.einsum`` contractions, :func:`linear`,
:func:`support_conv`, :func:`gru_update` and :func:`attention` are the
unfused tensor-op compositions behind the fused single-node ops of
:mod:`repro.nn.functional`, and :func:`engine` runs a whole model on the
reference paths.  :func:`adam_step` and :func:`clip_grad_norm` are the
per-parameter loops that :class:`repro.nn.optim.Adam` and
:func:`repro.nn.optim.clip_grad_norm` fuse over a parameter arena.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import functional, tensor
from .tensor import Tensor

__all__ = ["im2col", "col2im", "conv2d", "linear", "support_conv",
           "gru_update", "attention", "engine", "adam_step",
           "clip_grad_norm"]


def _build_col_indices(height: int, width: int, kh: int, kw: int,
                       stride: tuple[int, int], dilation: tuple[int, int]):
    """im2col index grids: ``(rows, cols, out_h, out_w)`` where
    ``rows``/``cols`` are ``(kh*kw, out_h*out_w)``."""
    sh, sw = stride
    dh, dw = dilation
    out_h = (height - dh * (kh - 1) - 1) // sh + 1
    out_w = (width - dw * (kw - 1) - 1) // sw + 1
    i0 = dh * np.repeat(np.arange(kh), kw)
    j0 = dw * np.tile(np.arange(kw), kh)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    rows = i0[:, None] + i1[None, :]
    cols = j0[:, None] + j1[None, :]
    return rows, cols, out_h, out_w


def im2col(x_data: np.ndarray, kernel: tuple[int, int],
           stride: tuple[int, int] = (1, 1),
           dilation: tuple[int, int] = (1, 1)):
    """Index-grid gather: ``(B, C, H, W) -> (B, C*kh*kw, L)`` plus out shape."""
    batch, channels, height, width = x_data.shape
    kh, kw = kernel
    rows, cols, out_h, out_w = _build_col_indices(height, width, kh, kw,
                                                  stride, dilation)
    patches = x_data[:, :, rows, cols]          # (B, C, kh*kw, L)
    return patches.reshape(batch, channels * kh * kw, -1), out_h, out_w


def col2im(g_cols: np.ndarray, shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: tuple[int, int] = (1, 1),
           dilation: tuple[int, int] = (1, 1)) -> np.ndarray:
    """``np.add.at`` scatter: the adjoint of :func:`im2col`."""
    batch, channels, height, width = shape
    kh, kw = kernel
    rows, cols, _, _ = _build_col_indices(height, width, kh, kw,
                                          stride, dilation)
    gx = np.zeros(shape, dtype=g_cols.dtype)
    np.add.at(gx, (slice(None), slice(None), rows, cols),
              g_cols.reshape(batch, channels, kh * kw, -1))
    return gx


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: tuple[int, int] = (1, 1),
           padding: tuple[int, int] = (0, 0),
           dilation: tuple[int, int] = (1, 1)) -> Tensor:
    """2-D convolution with the signature of :func:`repro.nn.functional.conv2d`."""
    stride = (int(stride[0]), int(stride[1]))
    dilation = (int(dilation[0]), int(dilation[1]))
    if padding != (0, 0):
        x = x.pad(((0, 0), (0, 0), (padding[0], padding[0]),
                   (padding[1], padding[1])))
    batch, c_in, height, width = x.shape
    c_out, _, kh, kw = weight.shape
    cols_mat, out_h, out_w = im2col(x.data, (kh, kw), stride, dilation)
    w_mat = weight.data.reshape(c_out, -1)
    out_data = np.einsum("ok,bkl->bol", w_mat, cols_mat)
    if bias is not None:
        out_data += bias.data[None, :, None]
    out_data = out_data.reshape(batch, c_out, out_h, out_w)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_mat = g.reshape(batch, c_out, -1)
        if weight.requires_grad:
            gw = np.einsum("bol,bkl->ok", g_mat, cols_mat)
            weight._accumulate(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_mat.sum(axis=(0, 2)))
        if not x.requires_grad:
            return
        g_cols = np.einsum("ok,bol->bkl", w_mat, g_mat)
        x._accumulate(col2im(g_cols, (batch, c_in, height, width), (kh, kw),
                             stride, dilation))

    return Tensor._make(out_data, parents, backward, "conv2d")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x Wᵀ + b`` as transpose, matmul and add nodes."""
    out = x.matmul(weight.swapaxes(0, 1))
    return out if bias is None else out + bias


def support_conv(x: Tensor, supports: np.ndarray, identity,
                 weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``Σ_k (S_k x) W_k + b`` as per-support matmuls and running sums."""
    out = None
    for k in range(len(supports)):
        propagated = x if identity[k] else Tensor(supports[k]).matmul(x)
        term = propagated.matmul(weight[k])
        out = term if out is None else out + term
    return out if bias is None else out + bias


def gru_update(u: Tensor, h: Tensor, c: Tensor) -> Tensor:
    """``u·h + (1 − u)·c`` as two products, a difference and a sum."""
    return u * h + (1.0 - u) * c


def attention(q: Tensor, k: Tensor, v: Tensor,
              mask: np.ndarray | None = None) -> Tensor:
    """``softmax(q kᵀ/√d [+ mask]) v`` as separate nodes."""
    scores = q.matmul(k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        scores = scores + Tensor(np.where(mask, 0.0, functional.MASKED_SCORE))
    return functional.softmax(scores, axis=-1).matmul(v)


#: The fused ops of :mod:`repro.nn.functional` that :func:`engine` swaps
#: for these compositions.
_FUSED = {"linear": linear, "support_conv": support_conv,
          "gru_update": gru_update, "attention": attention}


def _getitem_views(x: Tensor, indices, op: str) -> list[Tensor]:
    return [x[idx] for idx in indices]


@contextlib.contextmanager
def engine():
    """Inside the block ``F.conv2d`` is :func:`conv2d`, the fused ops
    (``F.linear``, ``F.support_conv``, ``F.gru_update``, ``F.attention``)
    are their compositions here, ``split``/``unbind`` return plain
    ``getitem`` views, and every ``getitem`` adjoint takes the
    ``np.add.at`` scatter; all are restored on exit.

    A graph records its backward closures when it is built, so build the
    graph inside the block as well as running its backward there.
    """
    saved = functional.conv2d, functional._slice_views, tensor._is_basic_index
    saved_ops = {name: getattr(functional, name) for name in _FUSED}
    functional.conv2d = conv2d
    functional._slice_views = _getitem_views
    tensor._is_basic_index = lambda index: False
    for name, op in _FUSED.items():
        setattr(functional, name, op)
    try:
        yield
    finally:
        (functional.conv2d, functional._slice_views,
         tensor._is_basic_index) = saved
        for name, op in saved_ops.items():
            setattr(functional, name, op)


def adam_step(parameters, m, v, step: int, lr: float,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
              weight_decay: float = 0.0) -> None:
    """One Adam update, one parameter at a time, in place.

    ``m``/``v`` hold one moment array per parameter, updated in place;
    ``step`` is the 1-based step count behind the bias correction.  Every
    parameter must carry a gradient.
    """
    beta1, beta2 = betas
    bias1 = 1.0 - beta1 ** step
    bias2 = 1.0 - beta2 ** step
    for param, m_p, v_p in zip(parameters, m, v):
        grad = param.grad
        if weight_decay:
            grad = grad + weight_decay * param.data
        m_p *= beta1
        m_p += (1.0 - beta1) * grad
        v_p *= beta2
        v_p += (1.0 - beta2) * grad * grad
        m_hat = m_p / bias1
        v_hat = v_p / bias2
        param.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Global-L2 gradient clipping with one norm term and one rescale per
    parameter; returns the pre-clip norm.  Parameters without a gradient
    are skipped."""
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
