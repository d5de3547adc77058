"""Multi-head scaled dot-product attention — GMAN's building block."""

from __future__ import annotations

import numpy as np

from .. import functional as F
from ..module import Module
from ..tensor import Tensor
from .linear import Linear

__all__ = ["scaled_dot_product_attention", "MultiHeadAttention"]


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 mask: np.ndarray | None = None) -> Tensor:
    """Attention over the last two axes of ``(..., L_q, d)`` tensors,
    scaled by ``1/√d`` — one :func:`repro.nn.functional.attention` node.

    ``mask`` is a boolean array broadcastable to the score shape; ``False``
    entries are excluded from the softmax.
    """
    return F.attention(q, k, v, mask=mask)


class MultiHeadAttention(Module):
    """Multi-head attention with fused projections.

    Input/outputs are ``(batch, length, d_model)``; an optional key-padding
    or structural mask of shape broadcastable to ``(batch, heads, L_q, L_k)``
    restricts attention.
    """

    def __init__(self, d_model: int, num_heads: int, *, rng: np.random.Generator):
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by heads={num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.proj_q = Linear(d_model, d_model, rng=rng)
        self.proj_k = Linear(d_model, d_model, rng=rng)
        self.proj_v = Linear(d_model, d_model, rng=rng)
        self.proj_out = Linear(d_model, d_model, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, length, _ = x.shape
        return (x.reshape(batch, length, self.num_heads, self.d_head)
                .transpose(0, 2, 1, 3))

    def forward(self, query: Tensor, key: Tensor, value: Tensor,
                mask: np.ndarray | None = None) -> Tensor:
        batch, length_q, _ = query.shape
        q = self._split_heads(self.proj_q(query))
        k = self._split_heads(self.proj_k(key))
        v = self._split_heads(self.proj_v(value))
        attended = scaled_dot_product_attention(q, k, v, mask=mask)
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, length_q, self.d_model)
        return self.proj_out(merged)
