"""FC-LSTM baseline (extension) — the classical deep baseline.

Before graph models, traffic forecasting used fully-connected LSTMs over
the concatenated sensor vector (the baseline the DCRNN paper compares
against).  Spatial structure is "modelled" only implicitly through the
dense input projection, so it sits between the per-node GRU baseline and
the graph models in the spatial-modelling spectrum.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.layers import Linear
from ..nn.layers.recurrent import LSTMCell
from ..nn.losses import masked_mae
from ..nn.module import ModuleList
from ..nn.tensor import Tensor
from .base import TrafficModel, register_model

__all__ = ["FCLSTM"]


@register_model("fc-lstm")
class FCLSTM(TrafficModel):
    """Encoder-decoder LSTM over the flattened sensor vector."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_size: int = 32, num_layers: int = 2,
                 tf_ratio: float = 0.5):
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.tf_ratio = tf_ratio
        self._tf_rng = np.random.default_rng(seed + 4219)
        flat_in = num_nodes * in_features
        self.encoder = ModuleList(
            [LSTMCell(flat_in if i == 0 else hidden_size, hidden_size,
                      rng=rng) for i in range(num_layers)])
        self.decoder = ModuleList(
            [LSTMCell(num_nodes if i == 0 else hidden_size, hidden_size,
                      rng=rng) for i in range(num_layers)])
        self.projection = Linear(hidden_size, num_nodes, rng=rng)

    def _run(self, x: Tensor, teacher: Tensor | None) -> Tensor:
        batch = x.shape[0]
        flat = x.reshape(batch, self.history,
                         self.num_nodes * self.in_features)
        h = [Tensor(np.zeros((batch, self.hidden_size), dtype=x.dtype))
             for _ in range(self.num_layers)]
        c = [Tensor(np.zeros((batch, self.hidden_size), dtype=x.dtype))
             for _ in range(self.num_layers)]
        for step in F.unbind(flat, axis=1):
            for layer, cell in enumerate(self.encoder):
                h[layer], c[layer] = cell(step, (h[layer], c[layer]))
                step = h[layer]

        step_input = Tensor(np.zeros((batch, self.num_nodes), dtype=x.dtype))
        outputs = []
        for t in range(self.horizon):
            step = step_input
            for layer, cell in enumerate(self.decoder):
                h[layer], c[layer] = cell(step, (h[layer], c[layer]))
                step = h[layer]
            prediction = self.projection(step)       # (B, N)
            outputs.append(prediction)
            use_teacher = (teacher is not None and self.training
                           and self._tf_rng.random() < self.tf_ratio)
            step_input = teacher[:, t] if use_teacher else prediction
        return F.stack(outputs, axis=1)

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        return self._run(x, teacher=None)

    def training_loss(self, x: Tensor, y_scaled: Tensor,
                      null_mask: np.ndarray | None = None) -> Tensor:
        return masked_mae(self._run(x, teacher=y_scaled), y_scaled,
                          null_value=None)
