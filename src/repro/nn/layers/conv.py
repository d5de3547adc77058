"""2-D convolution layer with dilation — needed by the TCN models.

Graph-WaveNet and STGCN use dilated/causal temporal convolutions over input
shaped ``(batch, channels, nodes, time)``; ``Conv2d`` with a ``(1, k)``
kernel implements exactly that.
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["Conv2d"]


def _pair(value) -> tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


class Conv2d(Module):
    """2-D convolution over ``(B, C_in, H, W)`` input."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, dilation=1, bias: bool = True,
                 *, rng: np.random.Generator):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.dilation = _pair(dilation)
        shape = (out_channels, in_channels, *self.kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, dilation=self.dilation)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, dilation={self.dilation})")
