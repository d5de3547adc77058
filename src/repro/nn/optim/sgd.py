"""Stochastic gradient descent with optional momentum and weight decay.

Fused single-array updates over a parameter arena; a plain parameter list
runs the per-parameter loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..module import Parameter
from .optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    def __init__(self, parameters: Sequence[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity_flat, self._velocity = self._state_buffers()

    def step(self) -> None:
        if self._fused():
            self._step_fused()
        else:
            self._step_loop()

    def _step_fused(self) -> None:
        data, grad = self.arena.data, self.arena.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        if self.momentum:
            velocity = self._velocity_flat
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        data -= self.lr * grad

    def _step_loop(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad
