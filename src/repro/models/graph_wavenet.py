"""Graph-WaveNet (Wu et al., IJCAI 2019).

Stacked dilated causal temporal convolutions with gated (tanh × sigmoid)
activations, interleaved with diffusion graph convolutions that combine the
fixed bidirectional random-walk supports with a *self-adaptive adjacency*
``softmax(relu(E1 E2ᵀ))`` learned from node embeddings.  Skip connections
feed a readout that emits **all 12 horizons at once** — the architecture the
paper finds fastest at inference and most accurate at short horizons.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn import init
from ..nn.layers import Conv2d
from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor
from .base import TrafficModel, register_model
from .graph_conv import diffusion_supports, identity_flags

__all__ = ["GraphWaveNet", "GWNetGraphConv"]


class GWNetGraphConv(Module):
    """Diffusion conv over fixed supports + the learned adaptive adjacency.

    Input/output ``(B, C, N, T)``.  Propagated signals for every support are
    concatenated on the channel axis and mixed by a 1×1 convolution.  The
    identity support (the first diffusion step) passes ``x`` through.
    """

    def __init__(self, adjacency: np.ndarray, in_channels: int,
                 out_channels: int, max_step: int = 2, embed_dim: int = 8,
                 adaptive: bool = True, *, rng: np.random.Generator):
        super().__init__()
        supports = diffusion_supports(adjacency, max_step)
        self.register_buffer("supports", np.stack(supports))
        self._identity = identity_flags(supports)
        self.adaptive = adaptive
        num_nodes = adjacency.shape[0]
        if adaptive:
            self.embed_source = Parameter(
                rng.normal(0, 0.1, (num_nodes, embed_dim)))
            self.embed_target = Parameter(
                rng.normal(0, 0.1, (embed_dim, num_nodes)))
        total = len(supports) + (1 if adaptive else 0)
        self.mix = Conv2d(total * in_channels, out_channels, (1, 1), rng=rng)

    def adaptive_adjacency(self) -> Tensor:
        if not self.adaptive:
            raise RuntimeError("adaptive adjacency disabled for this block")
        scores = self.embed_source.matmul(self.embed_target).relu()
        return F.softmax(scores, axis=1)

    def forward(self, x: Tensor) -> Tensor:
        propagated = [x if identity else
                      F.einsum("nm,bcmt->bcnt",
                               Tensor(support, dtype=x.dtype), x)
                      for support, identity in zip(self.supports,
                                                   self._identity)]
        if self.adaptive:
            propagated.append(
                F.einsum("nm,bcmt->bcnt", self.adaptive_adjacency(), x))
        return self.mix(F.concat(propagated, axis=1))


class _GWNetBlock(Module):
    """One gated dilated TCN + graph conv block with residual/skip outputs."""

    def __init__(self, adjacency: np.ndarray, residual_channels: int,
                 dilation_channels: int, skip_channels: int, dilation: int,
                 last: bool = False, adaptive: bool = True,
                 *, rng: np.random.Generator):
        super().__init__()
        self.dilation = dilation
        self.filter_conv = Conv2d(residual_channels, dilation_channels, (1, 2),
                                  dilation=(1, dilation), rng=rng)
        self.gate_conv = Conv2d(residual_channels, dilation_channels, (1, 2),
                                dilation=(1, dilation), rng=rng)
        # The final block feeds only the skip path, so its graph convolution
        # would be dead weight — omit it.
        self.graph_conv = (None if last else
                           GWNetGraphConv(adjacency, dilation_channels,
                                          residual_channels,
                                          adaptive=adaptive, rng=rng))
        self.skip_conv = Conv2d(dilation_channels, skip_channels, (1, 1), rng=rng)

    def forward(self, x: Tensor) -> tuple[Tensor | None, Tensor]:
        gated = self.filter_conv(x).tanh() * self.gate_conv(x).sigmoid()
        skip = self.skip_conv(gated)
        if self.graph_conv is None:
            return None, skip
        out = self.graph_conv(gated)
        residual = x[:, :, :, self.dilation:]          # align time
        return out + residual, skip


@register_model("graph-wavenet")
class GraphWaveNet(TrafficModel):
    """Graph WaveNet for deep spatio-temporal graph modelling."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, residual_channels: int = 16,
                 dilation_channels: int = 16, skip_channels: int = 32,
                 end_channels: int = 64,
                 dilations: tuple[int, ...] = (1, 2, 4, 8),
                 adaptive_adjacency: bool = True):
        """``adaptive_adjacency=False`` ablates the model's self-learned
        graph, leaving only the fixed random-walk supports."""
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        self.dilations = tuple(dilations)
        self.receptive_field = 1 + sum(self.dilations)
        self.input_conv = Conv2d(in_features, residual_channels, (1, 1), rng=rng)
        self.blocks = ModuleList(
            [_GWNetBlock(adjacency, residual_channels, dilation_channels,
                         skip_channels, d, last=(i == len(self.dilations) - 1),
                         adaptive=adaptive_adjacency,
                         rng=rng) for i, d in enumerate(self.dilations)])
        self.end_conv1 = Conv2d(skip_channels, end_channels, (1, 1), rng=rng)
        self.end_conv2 = Conv2d(end_channels, horizon, (1, 1), rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        out = x.transpose(0, 3, 2, 1)                 # (B, F, N, T)
        if self.history < self.receptive_field:
            pad = self.receptive_field - self.history
            out = out.pad(((0, 0), (0, 0), (0, 0), (pad, 0)))
        out = self.input_conv(out)
        skips = []
        for block in self.blocks:
            out, skip = block(out)
            skips.append(skip)
        # Crop every skip to the final (shortest) time length and sum.
        final_len = skips[-1].shape[-1]
        total = None
        for skip in skips:
            cropped = skip[:, :, :, skip.shape[-1] - final_len:]
            total = cropped if total is None else total + cropped
        out = total.relu()
        out = self.end_conv1(out).relu()
        out = self.end_conv2(out)                     # (B, horizon, N, T_f)
        # Collapse any remaining time steps (T_f is 1 by construction).
        return out.mean(axis=3)
