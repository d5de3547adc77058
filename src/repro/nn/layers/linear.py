"""Dense layer."""

from __future__ import annotations

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W^T + b`` applied over the last axis.

    Accepts input of any leading shape ``(..., in_features)``.
    """

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, *, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return (f"Linear(in_features={self.in_features}, "
                f"out_features={self.out_features}, bias={self.bias is not None})")
