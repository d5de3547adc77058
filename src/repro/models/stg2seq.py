"""STG2Seq (Bai et al., IJCAI 2019) — spatial-temporal graph to sequence.

STG2Seq avoids RNNs entirely: stacked *gated graph convolution modules*
(GGCM) capture temporal dynamics by convolving, at every step, a causal
window of recent graph signals through a first-order graph convolution with
GLU gating and residual connections.  A long-term encoder reads the whole
history and a short-term encoder re-reads the most recent steps; an
attention-based output module with a learned query per horizon step fuses
both and emits the full forecast at once.
"""

from __future__ import annotations

import numpy as np

from ..graph.adjacency import row_normalize
from ..nn import functional as F
from ..nn import init
from ..nn.layers import Linear
from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor
from .base import TrafficModel, register_model

__all__ = ["STG2Seq", "GatedGraphConvModule"]


class GatedGraphConvModule(Module):
    """One GGCM layer: causal temporal window -> graph conv -> GLU -> residual.

    Input/output ``(B, T, N, C)``.  Every output step sees the previous
    ``window`` input steps (zero-padded at the series start), concatenated on
    the feature axis and propagated through ``D⁻¹(A + I)``.
    """

    def __init__(self, adjacency: np.ndarray, channels: int, window: int = 3,
                 *, rng: np.random.Generator):
        super().__init__()
        self.window = window
        self.channels = channels
        support = row_normalize(np.asarray(adjacency) + np.eye(adjacency.shape[0]))
        self.register_buffer("support", support)
        self.weight = Parameter(init.xavier_uniform(
            (window * channels, 2 * channels), rng))
        self.bias = Parameter(np.zeros(2 * channels))

    def forward(self, x: Tensor) -> Tensor:
        # Causal stacking: pad (window-1) zero frames at the front, then for
        # each t concatenate steps [t-window+1 .. t] on the feature axis.
        padded = x.pad(((0, 0), (self.window - 1, 0), (0, 0), (0, 0)))
        frames = [padded[:, k:k + x.shape[1]] for k in range(self.window)]
        stacked = F.concat(frames, axis=-1)            # (B, T, N, window*C)
        propagated = F.einsum("nm,btmc->btnc",
                              Tensor(self.support, dtype=x.dtype), stacked)
        gated = propagated.matmul(self.weight) + self.bias
        value, gate = F.split(gated, 2, axis=-1)
        return x + value * gate.sigmoid()


@register_model("stg2seq")
class STG2Seq(TrafficModel):
    """Spatial-Temporal Graph to Sequence model."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, channels: int = 16, long_layers: int = 3,
                 short_layers: int = 2, short_window: int = 4):
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        self.channels = channels
        self.short_window = min(short_window, history)
        self.input_proj = Linear(in_features, channels, rng=rng)
        self.long_encoder = ModuleList(
            [GatedGraphConvModule(adjacency, channels, rng=rng)
             for _ in range(long_layers)])
        self.short_encoder = ModuleList(
            [GatedGraphConvModule(adjacency, channels, rng=rng)
             for _ in range(short_layers)])
        self.queries = Parameter(init.xavier_uniform((horizon, channels), rng))
        self.key_proj = Linear(channels, channels, rng=rng)
        self.out_proj = Linear(channels, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        hidden = self.input_proj(x)                   # (B, T, N, C)
        long_out = hidden
        for module in self.long_encoder:
            long_out = module(long_out)
        short_out = hidden[:, self.history - self.short_window:]
        for module in self.short_encoder:
            short_out = module(short_out)

        memory = F.concat([long_out, short_out], axis=1)   # (B, T+s, N, C)
        keys = self.key_proj(memory)                       # (B, L, N, C)
        # Horizon-specific attention over the temporal memory, per node.
        keys_t = keys.transpose(0, 2, 1, 3)                # (B, N, L, C)
        memory_t = memory.transpose(0, 2, 1, 3)            # (B, N, L, C)
        scores = F.einsum("bnlc,qc->bnql", keys_t, self.queries)
        scores = scores * (1.0 / np.sqrt(self.channels))
        weights = F.softmax(scores, axis=-1)               # (B, N, Q, L)
        context = weights.matmul(memory_t)                 # (B, N, Q, C)
        prediction = self.out_proj(context).squeeze(3)     # (B, N, Q)
        return prediction.transpose(0, 2, 1)               # (B, Q, N)
