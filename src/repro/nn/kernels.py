"""Shared kernel machinery: strided im2col, fast col2im, GEMM einsum.

Every conv-based model in the zoo (STGCN, Graph-WaveNet, ASTGCN, STSGCN)
funnels through :func:`repro.nn.functional.conv2d`, and every graph
propagation in Graph-WaveNet, STG2Seq, ASTGCN and ST-MetaNet through
:func:`repro.nn.functional.einsum`, so the speed of these kernels sets the
floor for every Table III-style cost comparison.  This module keeps that
floor close to the numpy speed-of-light:

- :func:`im2col` reads every patch through one read-only strided window
  view ``(B, C, kh, kw, out_h, out_w)`` of the input and reshapes it to
  ``(B, C*kh*kw, L)``: one sequential copy, or none at all for a 1×1
  stride-1 kernel on a contiguous input.
- :func:`col2im` scatters column gradients back to the input *without*
  ``np.add.at``: for each of the ``kh*kw`` kernel taps, the output grid
  maps to a strided, overlap-free view of the input, so the scatter is a
  handful of vectorised in-place adds.  The ``(1, k)`` stride-1 temporal
  kernels the TCN models use reduce to ``k`` shifted adds along the time
  axis.
- :func:`einsum` runs a two-operand contraction as one batched GEMM
  (``transpose -> reshape -> np.matmul -> reshape -> transpose``) from a
  plan cached per ``(subscripts, shape_a, shape_b)``
  (:func:`einsum_plan`).  Contractions without a GEMM — no contracted
  index longer than 1, or no free index on one side — call ``np.einsum``.
  The choice reads only the operand shapes.

Each op has one path.  The pre-optimisation kernels the equivalence
tests and ``repro bench kernels`` compare against live in
:mod:`repro.nn.reference`, which nothing here imports.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["im2col", "col2im", "EinsumPlan", "einsum_plan", "einsum"]


# --------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------- #
def im2col(x_data: np.ndarray, kernel: tuple[int, int],
           stride: tuple[int, int] = (1, 1),
           dilation: tuple[int, int] = (1, 1)):
    """Gather patches: ``(B, C, H, W) -> (B, C*kh*kw, L)`` plus out shape.

    Row ``c*kh*kw + ki*kw + kj`` of a batch entry holds tap ``(ki, kj)`` of
    channel ``c`` at every output position.  The patches come from one
    read-only window view of ``x_data`` whose reshape is a single
    sequential copy — or a view, for a 1×1 stride-1 kernel on a
    contiguous input, so callers must not write into the result.
    """
    batch, channels, height, width = x_data.shape
    kh, kw = kernel
    out_h, out_w = _out_grid(height, width, kh, kw, stride, dilation)
    s_b, s_c, s_h, s_w = x_data.strides
    windows = np.lib.stride_tricks.as_strided(
        x_data, (batch, channels, kh, kw, out_h, out_w),
        (s_b, s_c, dilation[0] * s_h, dilation[1] * s_w,
         stride[0] * s_h, stride[1] * s_w), writeable=False)
    return (windows.reshape(batch, channels * kh * kw, out_h * out_w),
            out_h, out_w)


def _out_grid(height: int, width: int, kh: int, kw: int,
              stride: tuple[int, int], dilation: tuple[int, int]):
    sh, sw = stride
    dh, dw = dilation
    out_h = (height - dh * (kh - 1) - 1) // sh + 1
    out_w = (width - dw * (kw - 1) - 1) // sw + 1
    return out_h, out_w


def col2im(g_cols: np.ndarray, shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: tuple[int, int] = (1, 1),
           dilation: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back onto the input.

    ``g_cols`` is ``(B, C, kh*kw, L)`` with ``L = out_h*out_w``; the result
    has ``shape = (B, C, H, W)``.  For any stride, the ``L`` output
    positions of one kernel tap land on *distinct* input cells, so the
    scatter decomposes into ``kh*kw`` overlap-free strided-slice adds — no
    ``np.add.at``.
    """
    batch, channels, height, width = shape
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    out_h, out_w = _out_grid(height, width, kh, kw, stride, dilation)
    g = g_cols.reshape(batch, channels, kh, kw, out_h, out_w)
    gx = np.zeros(shape, dtype=g_cols.dtype)
    for ki in range(kh):
        row = dh * ki
        row_slice = slice(row, row + sh * out_h, sh)
        for kj in range(kw):
            col = dw * kj
            gx[:, :, row_slice, col:col + sw * out_w:sw] += g[:, :, ki, kj]
    return gx


# --------------------------------------------------------------------- #
# two-operand einsum as one batched GEMM
# --------------------------------------------------------------------- #
class EinsumPlan(NamedTuple):
    """How one ``(subscripts, shape_a, shape_b)`` contraction runs.

    ``inputs``/``output`` are the parsed subscripts.  ``gemm`` is ``None``
    when the contraction goes to ``np.einsum``; otherwise it holds
    ``(perm_a, lhs_shape, perm_b, rhs_shape, mid_shape, perm_out)``:
    operand ``a`` is transposed to ``(batch, free_a, contracted)`` and
    reshaped to ``(B, M, K)``, operand ``b`` to ``(batch, contracted,
    free_b)`` and ``(B, K, N)`` (no ``B`` axis when no index is batched);
    the product is reshaped to ``mid_shape`` and transposed into the
    output order.
    """

    inputs: tuple[str, str]
    output: str
    gemm: tuple | None


def _validate(a_sub: str, b_sub: str, out_sub: str,
              shape_a: tuple[int, ...], shape_b: tuple[int, ...]) -> None:
    for name, sub, shape in (("first", a_sub, shape_a),
                             ("second", b_sub, shape_b)):
        if len(sub) != len(shape):
            raise ValueError(f"{name} operand has {len(shape)} axes but "
                             f"subscripts {sub!r} name {len(sub)}")
        for idx in sub:
            if sub.count(idx) > 1:
                raise ValueError(f"index {idx!r} is repeated within the "
                                 f"{name} operand")
    for idx in a_sub:
        if idx not in out_sub and idx not in b_sub:
            raise ValueError(f"index {idx!r} of first operand is summed alone")
    for idx in b_sub:
        if idx not in out_sub and idx not in a_sub:
            raise ValueError(f"index {idx!r} of second operand is summed alone")
    for idx in out_sub:
        if out_sub.count(idx) > 1:
            raise ValueError(f"output index {idx!r} is repeated")
        if idx not in a_sub and idx not in b_sub:
            raise ValueError(f"output index {idx!r} appears in no operand")
    size_b = dict(zip(b_sub, shape_b))
    for idx, size in zip(a_sub, shape_a):
        if idx in size_b and size_b[idx] != size:
            raise ValueError(f"index {idx!r} has size {size} in the first "
                             f"operand but {size_b[idx]} in the second")


@functools.lru_cache(maxsize=256)
def einsum_plan(subscripts: str, shape_a: tuple[int, ...],
                shape_b: tuple[int, ...]) -> EinsumPlan:
    """Validate a two-operand contraction and plan how it runs (cached).

    Raises ``ValueError`` naming the offending index for ellipses, indices
    repeated within an operand or in the output, an operand index summed
    alone, an output index found in no operand, and a shared index whose
    sizes differ (``np.einsum`` would broadcast a size-1 axis, which gives
    wrong-shaped gradients).  The GEMM is planned only when at least one
    contracted index is longer than 1 and each operand keeps at least one
    free index; the rule reads only the shapes.
    """
    if "..." in subscripts:
        raise ValueError("ellipsis subscripts are not supported")
    lhs, out_sub = subscripts.replace(" ", "").split("->")
    a_sub, b_sub = lhs.split(",")
    _validate(a_sub, b_sub, out_sub, shape_a, shape_b)
    sizes = {**dict(zip(a_sub, shape_a)), **dict(zip(b_sub, shape_b))}
    batch = [i for i in out_sub if i in a_sub and i in b_sub]
    free_a = [i for i in out_sub if i in a_sub and i not in b_sub]
    free_b = [i for i in out_sub if i in b_sub and i not in a_sub]
    contracted = [i for i in a_sub if i in b_sub and i not in out_sub]
    gemm = None
    if free_a and free_b and any(sizes[i] > 1 for i in contracted):
        def size(indices):
            return int(np.prod([sizes[i] for i in indices], dtype=np.int64))

        # A plain 2-D GEMM when nothing is batched.
        lead = (size(batch),) if batch else ()
        perm_a = tuple(a_sub.index(i) for i in batch + free_a + contracted)
        perm_b = tuple(b_sub.index(i) for i in batch + contracted + free_b)
        middle = batch + free_a + free_b
        gemm = (perm_a, lead + (size(free_a), size(contracted)),
                perm_b, lead + (size(contracted), size(free_b)),
                tuple(sizes[i] for i in middle),
                tuple(middle.index(i) for i in out_sub))
    return EinsumPlan((a_sub, b_sub), out_sub, gemm)


def einsum(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, a, b)`` run as one BLAS GEMM where one exists.

    See :func:`einsum_plan` for the validation and the GEMM/fallback rule.
    The result may be a transposed view of a freshly allocated product; it
    never aliases an operand.
    """
    gemm = einsum_plan(subscripts, a.shape, b.shape).gemm
    if gemm is None:
        return np.einsum(subscripts, a, b)
    perm_a, lhs_shape, perm_b, rhs_shape, mid_shape, perm_out = gemm
    product = np.matmul(a.transpose(perm_a).reshape(lhs_shape),
                        b.transpose(perm_b).reshape(rhs_shape))
    return product.reshape(mid_shape).transpose(perm_out)
