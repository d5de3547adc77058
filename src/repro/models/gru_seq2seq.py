"""GRU seq2seq without any spatial modelling (ablation extension).

The paper's model-selection step (Sec. IV-A) *excluded* models that do not
exploit the road graph, reporting that they are less accurate.  This model
makes that claim testable inside the benchmark: it is exactly a DCRNN with
the diffusion convolutions replaced by plain per-node dense transforms —
every sensor is forecast independently of its neighbours.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.layers import Linear
from ..nn.layers.recurrent import GRUCell
from ..nn.losses import masked_mae
from ..nn.module import ModuleList
from ..nn.tensor import Tensor
from .base import TrafficModel, register_model


@register_model("gru-seq2seq")
class GRUSeq2Seq(TrafficModel):
    """Graph-free encoder-decoder GRU over each sensor independently."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_size: int = 16, num_layers: int = 2,
                 tf_ratio: float = 0.5):
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.tf_ratio = tf_ratio
        self._tf_rng = np.random.default_rng(seed + 3571)
        self.encoder = ModuleList(
            [GRUCell(in_features if i == 0 else hidden_size, hidden_size,
                     rng=rng) for i in range(num_layers)])
        self.decoder = ModuleList(
            [GRUCell(1 if i == 0 else hidden_size, hidden_size, rng=rng)
             for i in range(num_layers)])
        self.projection = Linear(hidden_size, 1, rng=rng)

    def _run(self, x: Tensor, teacher: Tensor | None) -> Tensor:
        batch, history, nodes, features = x.shape
        # Flatten (batch, node) into one recurrence axis: no cross-node flow.
        flat = x.transpose(0, 2, 1, 3).reshape(batch * nodes, history, features)
        hidden = [Tensor(np.zeros((batch * nodes, self.hidden_size),
                                  dtype=x.dtype))
                  for _ in range(self.num_layers)]
        for step in F.unbind(flat, axis=1):
            for layer, cell in enumerate(self.encoder):
                hidden[layer] = cell(step, hidden[layer])
                step = hidden[layer]

        step_input = Tensor(np.zeros((batch * nodes, 1), dtype=x.dtype))
        outputs = []
        for t in range(self.horizon):
            step = step_input
            for layer, cell in enumerate(self.decoder):
                hidden[layer] = cell(step, hidden[layer])
                step = hidden[layer]
            prediction = self.projection(step)            # (B*N, 1)
            outputs.append(prediction.reshape(batch, nodes))
            use_teacher = (teacher is not None and self.training
                           and self._tf_rng.random() < self.tf_ratio)
            if use_teacher:
                step_input = (teacher[:, t].reshape(batch * nodes)
                              .expand_dims(1))
            else:
                step_input = prediction
        return F.stack(outputs, axis=1)                   # (B, T, N)

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        return self._run(x, teacher=None)

    def training_loss(self, x: Tensor, y_scaled: Tensor,
                      null_mask: np.ndarray | None = None) -> Tensor:
        return masked_mae(self._run(x, teacher=y_scaled), y_scaled,
                          null_value=None)
