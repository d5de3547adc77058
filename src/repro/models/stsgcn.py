"""STSGCN (Song et al., AAAI 2020) — spatial-temporal synchronous GCN.

STSGCN captures localised spatial-temporal correlations *synchronously* by
building a 3N×3N block graph over every window of three consecutive steps:
diagonal blocks are the road adjacency, off-diagonals connect each sensor to
itself one step earlier/later.  A learnable mask modulates this block
adjacency.  Gated graph convolutions run on the block graph and the middle
N vertices are cropped as the window's output; sliding the window shrinks
the sequence by two steps per layer.

The output stage uses an **individual two-layer head per horizon step**
(capturing heterogeneity), which is why STSGCN has the largest parameter
count in the paper's Table III.
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

__all__ = ["STSGCN", "STSGCModule"]


def _block_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """3N×3N localized spatial-temporal graph."""
    n = adjacency.shape[0]
    spatial = row_normalize(np.asarray(adjacency) + np.eye(n))
    eye = np.eye(n)
    block = np.zeros((3 * n, 3 * n))
    for t in range(3):
        block[t * n:(t + 1) * n, t * n:(t + 1) * n] = spatial
    for t in range(2):
        block[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n] = eye
        block[(t + 1) * n:(t + 2) * n, t * n:(t + 1) * n] = eye
    return block


class STSGCModule(Module):
    """Gated graph convolutions on the masked block graph; crops the middle.

    Input ``(B, 3, N, C_in)`` -> output ``(B, N, C_out)``.
    """

    def __init__(self, adjacency: np.ndarray, in_channels: int,
                 out_channels: int, num_layers: int = 2,
                 *, rng: np.random.Generator):
        super().__init__()
        self.num_nodes = adjacency.shape[0]
        block = _block_adjacency(adjacency)
        self.register_buffer("block_adjacency", block)
        self.mask = Parameter(np.ones_like(block))
        layer_list = []
        channels = in_channels
        for _ in range(num_layers):
            layer_list.append(_GatedBlockConv(channels, out_channels, rng=rng))
            channels = out_channels
        self.layers = ModuleList(layer_list)

    def forward(self, window: Tensor) -> Tensor:
        batch = window.shape[0]
        n = self.num_nodes
        x = window.reshape(batch, 3 * n, window.shape[-1])   # (B, 3N, C)
        support = self.mask * Tensor(self.block_adjacency, dtype=window.dtype)
        outputs = []
        for layer in self.layers:
            x = layer(x, support)
            outputs.append(x)
        # Aggregate layer outputs with elementwise max (as in the original),
        # then crop the middle time step's vertices.
        aggregated = outputs[0]
        for extra in outputs[1:]:
            aggregated = aggregated.maximum(extra)
        return aggregated[:, n:2 * n, :]


class _GatedBlockConv(Module):
    """One GLU graph convolution on the block graph."""

    def __init__(self, in_channels: int, out_channels: int,
                 *, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(init.xavier_uniform(
            (in_channels, 2 * out_channels), rng))
        self.bias = Parameter(np.zeros(2 * out_channels))

    def forward(self, x: Tensor, support: Tensor) -> Tensor:
        propagated = support.matmul(x)
        gated = propagated.matmul(self.weight) + self.bias
        value, gate = F.split(gated, 2, axis=-1)
        return value * gate.sigmoid()


@register_model("stsgcn")
class STSGCN(TrafficModel):
    """Spatial-Temporal Synchronous Graph Convolutional Network."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_channels: int = 16, num_layers: int = 2,
                 head_hidden: int = 32):
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        self.input_proj = Linear(in_features, hidden_channels, rng=rng)
        self.position = Parameter(
            rng.normal(0, 0.1, (history, 1, hidden_channels)))
        self.stsgc_layers = ModuleList(
            [STSGCModule(adjacency, hidden_channels, hidden_channels, rng=rng)
             for _ in range(num_layers)])
        self.final_steps = history - 2 * num_layers
        if self.final_steps < 1:
            raise ValueError(
                f"history {history} too short for {num_layers} STSGC layers")
        # Individual output module per horizon step (heterogeneity modules —
        # the source of STSGCN's parameter count).
        self.heads = ModuleList([
            _HorizonHead(self.final_steps * hidden_channels, head_hidden, rng=rng)
            for _ in range(horizon)])

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        hidden = self.input_proj(x) + self.position       # (B, T, N, C)
        for layer in self.stsgc_layers:
            steps = hidden.shape[1]
            windows = [layer(hidden[:, t:t + 3]) for t in range(steps - 2)]
            hidden = F.stack(windows, axis=1)             # (B, T-2, N, C)
        batch, steps, nodes, channels = hidden.shape
        flat = hidden.transpose(0, 2, 1, 3).reshape(batch, nodes,
                                                    steps * channels)
        predictions = [head(flat) for head in self.heads]  # each (B, N)
        return F.stack(predictions, axis=1)                # (B, horizon, N)


class _HorizonHead(Module):
    """Two-layer head for one output step."""

    def __init__(self, in_features: int, hidden: int, *, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(in_features, hidden, rng=rng)
        self.fc2 = Linear(hidden, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu()).squeeze(2)
