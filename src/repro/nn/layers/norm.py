"""Layer normalisation."""

from __future__ import annotations

import numpy as np

from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["LayerNorm"]


class LayerNorm(Module):
    """Layer normalisation over the trailing ``normalized_shape`` axes."""

    def __init__(self, normalized_shape, eps: float = 1e-5):
        super().__init__()
        if isinstance(normalized_shape, int):
            normalized_shape = (normalized_shape,)
        self.normalized_shape = tuple(normalized_shape)
        self.eps = eps
        self.gamma = Parameter(np.ones(self.normalized_shape))
        self.beta = Parameter(np.zeros(self.normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(x.ndim - len(self.normalized_shape), x.ndim))
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=axes, keepdims=True)
        normalised = centered / (var + self.eps).sqrt()
        return normalised * self.gamma + self.beta
