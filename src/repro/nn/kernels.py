"""Shared kernel machinery: cached im2col, fast col2im, BLAS contractions.

Every conv-based model in the zoo (STGCN, Graph-WaveNet, ASTGCN, STSGCN)
funnels through :func:`repro.nn.functional.conv2d`, and every graph
propagation in Graph-WaveNet, STG2Seq, ASTGCN and ST-MetaNet through
:func:`repro.nn.functional.einsum`, so the speed of these kernels sets the
floor for every Table III-style cost comparison.  This module keeps that
floor close to the numpy speed-of-light:

- :func:`col_indices` builds the im2col row/column index grids once per
  geometry ``(H, W, kernel, stride, dilation)`` and caches them (the grids
  are read-only so cache hits are safe to share between calls).
- :func:`col2im` scatters column gradients back to the input *without*
  ``np.add.at``: for each of the ``kh*kw`` kernel taps, the output grid
  maps to a strided, overlap-free view of the input, so the scatter is a
  handful of vectorised in-place adds.  The ``(1, k)`` stride-1 temporal
  kernels the TCN models use reduce to ``k`` shifted adds along the time
  axis.  Kernels with very many taps switch to a single flat
  ``np.bincount`` scatter instead.
- :func:`col2im_reference` is the original ``np.add.at`` implementation,
  kept as the ground truth for the equivalence tests and as the baseline
  the kernel benchmarks measure speedups against.
- :func:`conv_forward_contract`, :func:`conv_weight_grad_contract`, and
  :func:`conv_col_grad_contract` route the three conv contractions through
  BLAS (``matmul``/``tensordot``) instead of ``np.einsum``'s generic
  sum-of-products loops; the reference mode keeps the einsum paths.
- :func:`einsum` runs a two-operand contraction as one batched GEMM
  (``transpose -> reshape -> np.matmul -> reshape -> transpose``) from a
  plan cached per ``(subscripts, shape_a, shape_b)``
  (:func:`einsum_plan`).  Contractions without a GEMM — no contracted
  index longer than 1, or no free index on one side — call ``np.einsum``.
  The choice reads only the operand shapes; there is no reference mode.

The :func:`use_reference_kernels` context switches the whole engine (conv
scatter, index caching, basic-index gradients, ``unbind``/``split`` views)
back to the pre-optimisation reference paths so a single process can time
"before" and "after" honestly — see ``repro bench kernels`` and
``docs/performance.md``.
"""

from __future__ import annotations

import contextlib
import functools
from typing import NamedTuple

import numpy as np

__all__ = [
    "col_indices", "col_indices_cache_info", "clear_col_indices_cache",
    "im2col", "col2im", "col2im_reference",
    "conv_forward_contract", "conv_weight_grad_contract",
    "conv_col_grad_contract",
    "use_reference_kernels", "reference_kernels_enabled",
    "EinsumPlan", "einsum_plan", "einsum",
]

# Taps beyond this count make one flat bincount cheaper than per-tap adds.
_BINCOUNT_TAP_THRESHOLD = 64

_REFERENCE = False


@contextlib.contextmanager
def use_reference_kernels():
    """Route all kernels through the slow reference paths inside the block.

    Used by the benchmark suite to measure the pre-optimisation baseline in
    the same process, and by the equivalence tests to obtain ground-truth
    gradients.
    """
    global _REFERENCE
    previous = _REFERENCE
    _REFERENCE = True
    try:
        yield
    finally:
        _REFERENCE = previous


def reference_kernels_enabled() -> bool:
    """Whether the engine is currently in reference-kernel mode."""
    return _REFERENCE


# --------------------------------------------------------------------- #
# im2col index grids (cached per geometry)
# --------------------------------------------------------------------- #
def _build_col_indices(height: int, width: int, kh: int, kw: int,
                       stride: tuple[int, int], dilation: tuple[int, int]):
    sh, sw = stride
    dh, dw = dilation
    out_h = (height - dh * (kh - 1) - 1) // sh + 1
    out_w = (width - dw * (kw - 1) - 1) // sw + 1
    i0 = dh * np.repeat(np.arange(kh), kw)
    j0 = dw * np.tile(np.arange(kw), kh)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    rows = i0[:, None] + i1[None, :]          # (kh*kw, out_h*out_w)
    cols = j0[:, None] + j1[None, :]
    return rows, cols, out_h, out_w


@functools.lru_cache(maxsize=256)
def _cached_col_indices(height: int, width: int, kh: int, kw: int,
                        stride: tuple[int, int], dilation: tuple[int, int]):
    rows, cols, out_h, out_w = _build_col_indices(
        height, width, kh, kw, stride, dilation)
    # Cache entries are shared between callers; freeze them so an
    # accidental in-place edit cannot corrupt every later convolution.
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols, out_h, out_w


def col_indices(height: int, width: int, kernel: tuple[int, int],
                stride: tuple[int, int] = (1, 1),
                dilation: tuple[int, int] = (1, 1)):
    """im2col gather indices for one convolution geometry.

    Returns ``(rows, cols, out_h, out_w)`` where ``rows``/``cols`` are
    ``(kh*kw, out_h*out_w)`` index grids.  Results are cached per geometry
    (and returned read-only); in reference mode the grids are rebuilt on
    every call, matching the pre-optimisation engine.
    """
    kh, kw = kernel
    key = (int(height), int(width), int(kh), int(kw),
           (int(stride[0]), int(stride[1])),
           (int(dilation[0]), int(dilation[1])))
    if _REFERENCE:
        return _build_col_indices(*key)
    return _cached_col_indices(*key)


def col_indices_cache_info():
    """``functools`` cache statistics for the index-grid cache."""
    return _cached_col_indices.cache_info()


def clear_col_indices_cache() -> None:
    """Drop all cached index grids (tests and memory-pressure hooks)."""
    _cached_col_indices.cache_clear()


# --------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------- #
def im2col(x_data: np.ndarray, kernel: tuple[int, int],
           stride: tuple[int, int] = (1, 1),
           dilation: tuple[int, int] = (1, 1)):
    """Gather patches: ``(B, C, H, W) -> (B, C*kh*kw, L)`` plus out shape."""
    batch, channels, height, width = x_data.shape
    kh, kw = kernel
    rows, cols, out_h, out_w = col_indices(height, width, kernel,
                                           stride, dilation)
    patches = x_data[:, :, rows, cols]         # (B, C, kh*kw, L)
    return patches.reshape(batch, channels * kh * kw, -1), out_h, out_w


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
    ``np.add.at``.  Degenerate many-tap kernels fall back to one flat
    :func:`np.bincount` scatter.
    """
    batch, channels, height, width = shape
    kh, kw = kernel
    sh, sw = stride
    dh, dw = dilation
    out_h, out_w = _out_grid(height, width, kh, kw, stride, dilation)
    if kh * kw > _BINCOUNT_TAP_THRESHOLD:
        return _col2im_bincount(g_cols, shape, kernel, stride, dilation)
    g = g_cols.reshape(batch, channels, kh, kw, out_h, out_w)
    gx = np.zeros(shape, dtype=g_cols.dtype)
    for ki in range(kh):
        row = dh * ki
        row_slice = slice(row, row + sh * out_h, sh)
        for kj in range(kw):
            col = dw * kj
            gx[:, :, row_slice, col:col + sw * out_w:sw] += g[:, :, ki, kj]
    return gx


def _col2im_bincount(g_cols: np.ndarray, shape: tuple[int, int, int, int],
                     kernel: tuple[int, int], stride: tuple[int, int],
                     dilation: tuple[int, int]) -> np.ndarray:
    """Flat ``np.bincount`` scatter — one pass regardless of tap count."""
    batch, channels, height, width = shape
    rows, cols, _, _ = col_indices(height, width, kernel, stride, dilation)
    plane = height * width
    spatial = (rows * width + cols).ravel()                 # (K*L,)
    flat = g_cols.reshape(batch * channels, -1)
    index = (np.arange(batch * channels)[:, None] * plane
             + spatial[None, :]).ravel()
    summed = np.bincount(index, weights=flat.ravel(),
                         minlength=batch * channels * plane)
    return summed.reshape(shape).astype(g_cols.dtype, copy=False)


def col2im_reference(g_cols: np.ndarray, shape: tuple[int, int, int, int],
                     kernel: tuple[int, int],
                     stride: tuple[int, int] = (1, 1),
                     dilation: tuple[int, int] = (1, 1)) -> np.ndarray:
    """Original ``np.add.at`` scatter — ground truth for equivalence tests
    and the baseline for the kernel benchmarks."""
    batch, channels, height, width = shape
    kh, kw = kernel
    rows, cols, _, _ = col_indices(height, width, kernel, stride, dilation)
    gx = np.zeros(shape, dtype=g_cols.dtype)
    np.add.at(gx, (slice(None), slice(None), rows, cols),
              g_cols.reshape(batch, channels, kh * kw, -1))
    return gx


# --------------------------------------------------------------------- #
# conv contractions — BLAS GEMMs on the fast path, the original
# ``np.einsum`` sum-of-products loops on the reference path.
# --------------------------------------------------------------------- #
def conv_forward_contract(w_mat: np.ndarray,
                          cols_mat: np.ndarray) -> np.ndarray:
    """``(Cout, CK) @ (B, CK, L) -> (B, Cout, L)`` output contraction."""
    if _REFERENCE:
        return np.einsum("ok,bkl->bol", w_mat, cols_mat)
    return np.matmul(w_mat, cols_mat)


def conv_weight_grad_contract(g_mat: np.ndarray,
                              cols_mat: np.ndarray) -> np.ndarray:
    """``(B, Cout, L) x (B, CK, L) -> (Cout, CK)`` weight gradient."""
    if _REFERENCE:
        return np.einsum("bol,bkl->ok", g_mat, cols_mat)
    return np.tensordot(g_mat, cols_mat, axes=([0, 2], [0, 2]))


def conv_col_grad_contract(w_mat: np.ndarray,
                           g_mat: np.ndarray) -> np.ndarray:
    """``(Cout, CK).T @ (B, Cout, L) -> (B, CK, L)`` column gradient."""
    if _REFERENCE:
        return np.einsum("ok,bol->bkl", w_mat, g_mat)
    return np.matmul(w_mat.T, g_mat)


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
