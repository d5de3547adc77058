"""Shared graph-convolution building blocks used by the eight models.

Two families (paper Table II): Chebyshev spectral convolution (STGCN,
ASTGCN) and diffusion/random-walk spatial convolution (DCRNN,
Graph-WaveNet, STSGCN, STG2Seq).
"""

from __future__ import annotations

import numpy as np

from ..graph.laplacian import chebyshev_polynomials, dual_random_walk
from ..nn import functional as F
from ..nn import init
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor

__all__ = ["ChebConv", "DiffusionConv", "diffusion_supports", "cheb_supports",
           "identity_flags"]


def identity_flags(supports) -> tuple[bool, ...]:
    """Which supports are exactly the identity (propagating by one is a no-op).

    Layers check once, when they are built: ``I @ x`` is ``x`` and its
    gradient ``Iᵀ @ g`` is ``g``, so an identity support needs no matmul.
    """
    return tuple(bool(np.array_equal(s, np.eye(s.shape[0]))) for s in supports)


def cheb_supports(adjacency: np.ndarray, order: int) -> list[np.ndarray]:
    """Chebyshev polynomial supports T_0..T_{K-1} of the scaled Laplacian."""
    return chebyshev_polynomials(adjacency, order)


def diffusion_supports(adjacency: np.ndarray, max_step: int = 2) -> list[np.ndarray]:
    """Bidirectional random-walk supports [I, Pf, Pf^2.., Pb, Pb^2..]."""
    forward, backward = dual_random_walk(adjacency)
    supports: list[np.ndarray] = [np.eye(adjacency.shape[0])]
    power = np.eye(adjacency.shape[0])
    for _ in range(max_step):
        power = power @ forward
        supports.append(power)
    power = np.eye(adjacency.shape[0])
    for _ in range(max_step):
        power = power @ backward
        supports.append(power)
    return supports


class _SupportConv(Module):
    """Graph convolution over a fixed list of support matrices.

    Input ``(..., N, C_in)`` → output ``(..., N, C_out)``:
    ``out = sum_k (S_k X) W_k + b``, one
    :func:`repro.nn.functional.support_conv` node.  Supports that are
    exactly the identity (T₀ of the Chebyshev basis, the first diffusion
    support) skip their propagation matmul.
    """

    def __init__(self, supports: list[np.ndarray], in_channels: int,
                 out_channels: int, *, rng: np.random.Generator):
        super().__init__()
        if not supports:
            raise ValueError("need at least one support matrix")
        self.num_supports = len(supports)
        self.in_channels = in_channels
        self.out_channels = out_channels
        stacked = np.stack([np.asarray(s, dtype=float) for s in supports])
        self.register_buffer("supports", stacked)       # (K, N, N)
        self._identity = identity_flags(stacked)
        self.weight = Parameter(init.xavier_uniform(
            (self.num_supports, in_channels, out_channels), rng))
        self.bias = Parameter(np.zeros(out_channels))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.supports.shape[-1]:
            raise ValueError(
                f"input has {x.shape[-2]} nodes, supports expect "
                f"{self.supports.shape[-1]}")
        return F.support_conv(x, self.supports, self._identity, self.weight,
                              self.bias)


class ChebConv(_SupportConv):
    """Spectral convolution with Chebyshev basis of order K."""

    def __init__(self, adjacency: np.ndarray, in_channels: int,
                 out_channels: int, order: int = 3, *, rng: np.random.Generator):
        super().__init__(cheb_supports(adjacency, order), in_channels,
                         out_channels, rng=rng)
        self.order = order


class DiffusionConv(_SupportConv):
    """Bidirectional diffusion convolution with K random-walk steps."""

    def __init__(self, adjacency: np.ndarray, in_channels: int,
                 out_channels: int, max_step: int = 2, *, rng: np.random.Generator):
        super().__init__(diffusion_supports(adjacency, max_step), in_channels,
                         out_channels, rng=rng)
        self.max_step = max_step
