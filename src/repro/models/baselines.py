"""Naive baselines (extension beyond the paper's eight models).

These anchor the benchmark: any deep model should beat LastValue at short
horizons and HistoricalAverage at long horizons, and the difficult-interval
degradation of LastValue is a useful reference for how much of the models'
degradation is irreducible.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.layers import Linear
from ..nn.module import Parameter
from ..nn.tensor import Tensor
from .base import TrafficModel, register_model

__all__ = ["LastValue", "HistoricalAverage", "LinearRegression"]


@register_model("last-value")
class LastValue(TrafficModel):
    """Persist the most recent observation across the whole horizon."""

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        last = x[:, -1, :, 0]                     # (B, N)
        frames = [last for _ in range(self.horizon)]
        return F.stack(frames, axis=1)

    def training_loss(self, x, y_scaled, null_mask=None):
        # Nothing to learn; return a constant zero so the trainer is a no-op.
        return Tensor(np.zeros((), dtype=x.dtype), requires_grad=False)


@register_model("historical-average")
class HistoricalAverage(TrafficModel):
    """Predict the mean of the input window for every horizon step."""

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        mean = x[:, :, :, 0].mean(axis=1)         # (B, N)
        frames = [mean for _ in range(self.horizon)]
        return F.stack(frames, axis=1)

    def training_loss(self, x, y_scaled, null_mask=None):
        return Tensor(np.zeros((), dtype=x.dtype), requires_grad=False)


@register_model("linear")
class LinearRegression(TrafficModel):
    """Per-node-agnostic linear map from the input window to the horizon."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0):
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        self.fc = Linear(history * in_features, horizon, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        batch = x.shape[0]
        flat = x.transpose(0, 2, 1, 3).reshape(
            batch, self.num_nodes, self.history * self.in_features)
        out = self.fc(flat)                        # (B, N, horizon)
        return out.transpose(0, 2, 1)
