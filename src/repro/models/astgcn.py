"""ASTGCN (Guo et al., AAAI 2019) — attention-based spatial-temporal GCN.

Each block computes a *temporal attention* matrix (reweighting time steps),
a *spatial attention* matrix (modulating the Chebyshev supports
element-wise), a Chebyshev graph convolution, and a temporal convolution,
with a residual connection and layer normalisation.  A final convolution
over the time axis emits all horizons at once.

The paper uses only the "recent" component (T'=12 for fairness across
models), dropping ASTGCN's daily/weekly periodicity branches — we mirror
that choice.
"""

from __future__ import annotations

import numpy as np

from ..graph.laplacian import chebyshev_polynomials
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Conv2d, LayerNorm
from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor
from .base import TrafficModel, register_model

__all__ = ["ASTGCN", "SpatialAttention", "TemporalAttention"]


class SpatialAttention(Module):
    """S = softmax(Vs ⊙ sigmoid((X W1 W2)(W3 X)ᵀ + bs)) over nodes.

    Input ``(B, N, F, T)``; output ``(B, N, N)`` row-normalised.
    """

    def __init__(self, num_nodes: int, in_channels: int, num_steps: int,
                 *, rng: np.random.Generator):
        super().__init__()
        self.w1 = Parameter(init.uniform((num_steps,), rng))
        self.w2 = Parameter(init.xavier_uniform((in_channels, num_steps), rng))
        self.w3 = Parameter(init.uniform((in_channels,), rng))
        self.vs = Parameter(init.xavier_uniform((num_nodes, num_nodes), rng))
        self.bias = Parameter(np.zeros((num_nodes, num_nodes)))

    def forward(self, x: Tensor) -> Tensor:
        lhs = x.matmul(self.w1)                        # (B, N, F)
        lhs = lhs.matmul(self.w2)                      # (B, N, T)
        rhs = F.einsum("f,bnft->bnt", self.w3, x)      # (B, N, T)
        product = lhs.matmul(rhs.transpose(0, 2, 1))   # (B, N, N)
        scores = self.vs * (product + self.bias).sigmoid()
        return F.softmax(scores, axis=-1)


class TemporalAttention(Module):
    """E = softmax(Ve ⊙ sigmoid((Xᵀ U1 U2)(U3 X) + be)) over time steps.

    Input ``(B, N, F, T)``; output ``(B, T, T)``.
    """

    def __init__(self, num_nodes: int, in_channels: int, num_steps: int,
                 *, rng: np.random.Generator):
        super().__init__()
        self.u1 = Parameter(init.uniform((num_nodes,), rng))
        self.u2 = Parameter(init.xavier_uniform((in_channels, num_nodes), rng))
        self.u3 = Parameter(init.uniform((in_channels,), rng))
        self.ve = Parameter(init.xavier_uniform((num_steps, num_steps), rng))
        self.bias = Parameter(np.zeros((num_steps, num_steps)))

    def forward(self, x: Tensor) -> Tensor:
        x_t = x.transpose(0, 3, 2, 1)                  # (B, T, F, N)
        lhs = x_t.matmul(self.u1)                      # (B, T, F)
        lhs = lhs.matmul(self.u2)                      # (B, T, N)
        rhs = F.einsum("f,bnft->bnt", self.u3, x)      # (B, N, T)
        product = lhs.matmul(rhs)                      # (B, T, T)
        scores = self.ve * (product + self.bias).sigmoid()
        return F.softmax(scores, axis=-1)


class _ASTGCNBlock(Module):
    def __init__(self, adjacency: np.ndarray, in_channels: int,
                 out_channels: int, num_nodes: int, num_steps: int,
                 cheb_order: int = 3, *, rng: np.random.Generator):
        super().__init__()
        self.temporal_attention = TemporalAttention(num_nodes, in_channels,
                                                    num_steps, rng=rng)
        self.spatial_attention = SpatialAttention(num_nodes, in_channels,
                                                  num_steps, rng=rng)
        self.register_buffer(
            "cheb", np.stack(chebyshev_polynomials(adjacency, cheb_order)))
        self.cheb_order = cheb_order
        self.cheb_weight = Parameter(init.xavier_uniform(
            (cheb_order, in_channels, out_channels), rng))
        self.time_conv = Conv2d(out_channels, out_channels, (1, 3),
                                padding=(0, 1), rng=rng)
        self.residual_conv = Conv2d(in_channels, out_channels, (1, 1), rng=rng)
        self.norm = LayerNorm(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        # x: (B, N, F, T)
        temporal = self.temporal_attention(x)          # (B, T, T)
        x_reweighted = F.einsum("bnft,btu->bnfu", x, temporal)
        spatial = self.spatial_attention(x_reweighted)  # (B, N, N)

        # Chebyshev convolution with attention-masked supports, per step.
        batch, nodes, channels, steps = x.shape
        features = x_reweighted.transpose(0, 3, 1, 2)   # (B, T, N, F)
        out = None
        for k in range(self.cheb_order):
            cheb = Tensor(self.cheb[k], dtype=x.dtype)
            masked = spatial * cheb                     # (B, N, N)
            propagated = F.einsum("bnm,btmf->btnf", masked, features)
            term = propagated.matmul(self.cheb_weight[k])
            out = term if out is None else out + term
        out = out.relu()                                # (B, T, N, C)

        out = out.transpose(0, 3, 2, 1)                 # (B, C, N, T)
        out = self.time_conv(out)
        residual = self.residual_conv(x.transpose(0, 2, 1, 3))  # (B,C,N,T)
        out = (out + residual).relu()
        out = self.norm(out.transpose(0, 3, 2, 1))      # (B, T, N, C)
        return out.transpose(0, 2, 3, 1)                # (B, N, C, T)


@register_model("astgcn")
class ASTGCN(TrafficModel):
    """Attention-based Spatial-Temporal Graph Convolutional Network."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_channels: int = 16, num_blocks: int = 2,
                 cheb_order: int = 3):
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        blocks = []
        channels = in_features
        for _ in range(num_blocks):
            blocks.append(_ASTGCNBlock(adjacency, channels, hidden_channels,
                                       num_nodes, history, cheb_order, rng=rng))
            channels = hidden_channels
        self.blocks = ModuleList(blocks)
        self.final_conv = Conv2d(history, horizon, (1, hidden_channels), rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        out = x.transpose(0, 2, 3, 1)                   # (B, N, F, T)
        for block in self.blocks:
            out = block(out)
        # (B, N, C, T) -> conv over (channels) with time as conv channels.
        out = out.transpose(0, 3, 1, 2)                 # (B, T, N, C)
        out = self.final_conv(out)                      # (B, horizon, N, 1)
        return out.squeeze(3)
