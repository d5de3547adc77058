"""GMAN (Zheng et al., AAAI 2020) — graph multi-attention network.

GMAN is pure attention: a spatio-temporal embedding (a learned node
embedding standing in for node2vec, fused with a time-of-day embedding)
conditions every block.  Encoder blocks run *spatial attention* (across
sensors) and *temporal attention* (across steps) in parallel and merge them
with a gated fusion; a *transform attention* bridges the encoder's T'
historical representations to the T future steps by attending with the
future time embeddings as queries — this direct one-shot long-horizon
decoding is why the paper finds GMAN strongest at 60-minute predictions.

The original's grouped (random-partition) spatial attention is a memory
optimisation for 300+ sensors; at reproduction scale full attention is
exact and equivalent.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.layers import Embedding, Linear, MultiHeadAttention
from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor
from .base import TrafficModel, register_model

__all__ = ["GMAN", "GatedFusion", "STAttentionBlock", "TransformAttention"]

_TIME_SLOTS = 288   # 5-minute slots per day


class GatedFusion(Module):
    """H = z ⊙ H_spatial + (1-z) ⊙ H_temporal with learned gate z."""

    def __init__(self, d_model: int, *, rng: np.random.Generator):
        super().__init__()
        self.fc_spatial = Linear(d_model, d_model, bias=False, rng=rng)
        self.fc_temporal = Linear(d_model, d_model, rng=rng)
        self.fc_out = Linear(d_model, d_model, rng=rng)

    def forward(self, h_spatial: Tensor, h_temporal: Tensor) -> Tensor:
        gate = (self.fc_spatial(h_spatial) + self.fc_temporal(h_temporal)).sigmoid()
        fused = F.gru_update(gate, h_spatial, h_temporal)
        return self.fc_out(fused).relu()


class STAttentionBlock(Module):
    """Parallel spatial + temporal attention with gated fusion and residual.

    Input ``(B, T, N, D)``; the ST embedding (same shape) is added to the
    attention inputs, conditioning attention on where/when.
    """

    def __init__(self, d_model: int, num_heads: int, *, rng: np.random.Generator):
        super().__init__()
        self.spatial = MultiHeadAttention(d_model, num_heads, rng=rng)
        self.temporal = MultiHeadAttention(d_model, num_heads, rng=rng)
        self.fusion = GatedFusion(d_model, rng=rng)

    def forward(self, x: Tensor, ste: Tensor) -> Tensor:
        batch, steps, nodes, dim = x.shape
        conditioned = x + ste
        # Spatial attention: across nodes, independently per (batch, step).
        flat_s = conditioned.reshape(batch * steps, nodes, dim)
        h_spatial = self.spatial(flat_s, flat_s, flat_s)
        h_spatial = h_spatial.reshape(batch, steps, nodes, dim)
        # Temporal attention: across steps, independently per (batch, node).
        seq = conditioned.transpose(0, 2, 1, 3).reshape(batch * nodes, steps, dim)
        h_temporal = self.temporal(seq, seq, seq)
        h_temporal = (h_temporal.reshape(batch, nodes, steps, dim)
                      .transpose(0, 2, 1, 3))
        return x + self.fusion(h_spatial, h_temporal)


class TransformAttention(Module):
    """Attend from future ST embeddings (queries) to historical states."""

    def __init__(self, d_model: int, num_heads: int, *, rng: np.random.Generator):
        super().__init__()
        self.attention = MultiHeadAttention(d_model, num_heads, rng=rng)

    def forward(self, x: Tensor, ste_history: Tensor, ste_future: Tensor) -> Tensor:
        batch, steps_in, nodes, dim = x.shape
        steps_out = ste_future.shape[1]
        query = (ste_future.transpose(0, 2, 1, 3)
                 .reshape(batch * nodes, steps_out, dim))
        key = (ste_history.transpose(0, 2, 1, 3)
               .reshape(batch * nodes, steps_in, dim))
        value = (x.transpose(0, 2, 1, 3)
                 .reshape(batch * nodes, steps_in, dim))
        out = self.attention(query, key, value)
        return (out.reshape(batch, nodes, steps_out, dim)
                .transpose(0, 2, 1, 3))


@register_model("gman")
class GMAN(TrafficModel):
    """Graph Multi-Attention Network."""

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, d_model: int = 16, num_heads: int = 2,
                 num_blocks: int = 1):
        super().__init__(num_nodes, adjacency, history, horizon, in_features, seed)
        rng = np.random.default_rng(seed)
        self.d_model = d_model
        # Learned node embedding replaces the paper's node2vec vectors.
        self.node_embedding = Parameter(rng.normal(0, 0.1, (num_nodes, d_model)))
        self.time_embedding = Embedding(_TIME_SLOTS, d_model, rng=rng)
        self.fc_se = Linear(d_model, d_model, rng=rng)
        self.fc_te = Linear(d_model, d_model, rng=rng)
        self.input_proj = Linear(1, d_model, rng=rng)
        self.encoder = ModuleList(
            [STAttentionBlock(d_model, num_heads, rng=rng)
             for _ in range(num_blocks)])
        self.transform = TransformAttention(d_model, num_heads, rng=rng)
        self.decoder = ModuleList(
            [STAttentionBlock(d_model, num_heads, rng=rng)
             for _ in range(num_blocks)])
        self.output_fc1 = Linear(d_model, d_model, rng=rng)
        self.output_fc2 = Linear(d_model, 1, rng=rng)

    # ------------------------------------------------------------------ #
    def _st_embeddings(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """(STE_history, STE_future), each (B, steps, N, D)."""
        time_feature = x.data[:, :, 0, 1]                  # (B, T')
        slots = np.clip((time_feature * _TIME_SLOTS).round().astype(int),
                        0, _TIME_SLOTS - 1)
        # Future slots continue the 5-minute grid.
        future = (slots[:, -1:] + np.arange(1, self.horizon + 1)) % _TIME_SLOTS

        spatial = self.fc_se(self.node_embedding).relu()   # (N, D)

        def ste_for(slot_index: np.ndarray) -> Tensor:
            te = self.time_embedding(slot_index)           # (B, steps, D)
            te = self.fc_te(te).relu()
            return te.expand_dims(2) + spatial             # (B, steps, N, D)

        return ste_for(slots), ste_for(future)

    def forward(self, x: Tensor) -> Tensor:
        self._validate_input(x)
        ste_history, ste_future = self._st_embeddings(x)
        values = x[:, :, :, 0:1]                           # (B, T', N, 1)
        hidden = self.input_proj(values).relu()
        for block in self.encoder:
            hidden = block(hidden, ste_history)
        hidden = self.transform(hidden, ste_history, ste_future)
        for block in self.decoder:
            hidden = block(hidden, ste_future)
        out = self.output_fc2(self.output_fc1(hidden).relu())
        return out.squeeze(3)                              # (B, T, N)
