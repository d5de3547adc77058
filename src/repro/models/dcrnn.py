"""DCRNN (Li et al., ICLR 2018) — diffusion-convolutional recurrent network.

A GRU in which every dense transform is replaced by a bidirectional
diffusion convolution over the road graph (random-walk supports, K steps in
each direction).  An encoder consumes the T'=12 history; a decoder emits the
T=12 forecast autoregressively from a GO symbol — the sequence-to-sequence
structure whose error accumulation the paper highlights in Sec. V-A/VI.

Training feeds ground truth to the decoder (teacher forcing) with a
probability that either stays fixed at ``tf_ratio`` or, when
``scheduled_sampling_decay`` is set, follows the original DCRNN curriculum
— an inverse-sigmoid decay ``k / (k + exp(step / k))`` that starts near 1
(always teacher-forced) and anneals towards 0 (free-running) as training
progresses.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.losses import masked_mae
from ..nn.module import Module, ModuleList
from ..nn.layers import Linear
from ..nn.tensor import Tensor
from .base import TrafficModel, register_model
from .graph_conv import DiffusionConv

__all__ = ["DCRNN", "DCGRUCell"]


class DCGRUCell(Module):
    """GRU cell whose matmuls are diffusion convolutions.

    Operates on ``(B, N, C)`` node features; hidden state is ``(B, N, H)``.
    """

    def __init__(self, adjacency: np.ndarray, input_size: int, hidden_size: int,
                 max_diffusion_step: int = 2, *, rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        self.gate_conv = DiffusionConv(adjacency, input_size + hidden_size,
                                       2 * hidden_size, max_diffusion_step,
                                       rng=rng)
        self.candidate_conv = DiffusionConv(adjacency, input_size + hidden_size,
                                            hidden_size, max_diffusion_step,
                                            rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        combined = F.concat([x, h], axis=-1)
        gates = self.gate_conv(combined).sigmoid()
        reset, update = F.split(gates, 2, axis=-1)
        candidate_in = F.concat([x, reset * h], axis=-1)
        candidate = self.candidate_conv(candidate_in).tanh()
        return F.gru_update(update, h, candidate)


@register_model("dcrnn")
class DCRNN(TrafficModel):
    """Diffusion Convolutional Recurrent Neural Network (seq2seq)."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, hidden_size: int = 16, num_layers: int = 2,
                 max_diffusion_step: int = 2, tf_ratio: float = 0.5,
                 scheduled_sampling_decay: float | None = None):
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.tf_ratio = tf_ratio
        self.scheduled_sampling_decay = scheduled_sampling_decay
        self._global_step = 0
        self._tf_rng = np.random.default_rng(seed + 7919)
        self.encoder = ModuleList(
            [DCGRUCell(adjacency, in_features if i == 0 else hidden_size,
                       hidden_size, max_diffusion_step, rng=rng)
             for i in range(num_layers)])
        self.decoder = ModuleList(
            [DCGRUCell(adjacency, 1 if i == 0 else hidden_size,
                       hidden_size, max_diffusion_step, rng=rng)
             for i in range(num_layers)])
        self.projection = Linear(hidden_size, 1, rng=rng)

    # ------------------------------------------------------------------ #
    def _encode(self, x: Tensor) -> list[Tensor]:
        batch = x.shape[0]
        hidden = [Tensor(np.zeros((batch, self.num_nodes, self.hidden_size),
                                  dtype=x.dtype))
                  for _ in range(self.num_layers)]
        for step in F.unbind(x, axis=1):
            for layer, cell in enumerate(self.encoder):
                hidden[layer] = cell(step, hidden[layer])
                step = hidden[layer]
        return hidden

    def _decode(self, hidden: list[Tensor], batch: int,
                teacher: Tensor | None = None) -> Tensor:
        go = Tensor(np.zeros((batch, self.num_nodes, 1),
                             dtype=hidden[0].dtype))
        step_input = go
        outputs = []
        for t in range(self.horizon):
            step = step_input
            for layer, cell in enumerate(self.decoder):
                hidden[layer] = cell(step, hidden[layer])
                step = hidden[layer]
            prediction = self.projection(step)         # (B, N, 1)
            outputs.append(prediction.squeeze(2))
            use_teacher = (teacher is not None and self.training
                           and self._tf_rng.random()
                           < self._teacher_probability())
            if use_teacher:
                step_input = teacher[:, t].expand_dims(2)
            else:
                step_input = prediction
        return F.stack(outputs, axis=1)                # (B, T, N)

    def _teacher_probability(self) -> float:
        """Fixed ratio, or the DCRNN inverse-sigmoid curriculum."""
        if self.scheduled_sampling_decay is None:
            return self.tf_ratio
        k = self.scheduled_sampling_decay
        return k / (k + np.exp(min(self._global_step / k, 500.0)))

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        hidden = self._encode(x)
        return self._decode(hidden, x.shape[0])

    def training_loss(self, x: Tensor, y_scaled: Tensor,
                      null_mask: np.ndarray | None = None) -> Tensor:
        hidden = self._encode(x)
        prediction = self._decode(hidden, x.shape[0], teacher=y_scaled)
        self._global_step += 1
        return masked_mae(prediction, y_scaled, null_value=None)
