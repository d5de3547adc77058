"""RMSprop and Adagrad — adaptive-rate optimizers for sweep comparisons.

Both take the fused single-array path over a parameter arena when one is
available, and the per-parameter loop over a plain parameter list.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..module import Parameter
from .optimizer import Optimizer

__all__ = ["RMSprop", "Adagrad"]


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton): EMA of squared gradients."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 0.01,
                 alpha: float = 0.99, eps: float = 1e-8,
                 weight_decay: float = 0.0, momentum: float = 0.0):
        super().__init__(parameters, lr)
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay
        self.momentum = momentum
        self._square_avg_flat, self._square_avg = self._state_buffers()
        self._buffer_flat, self._buffer = self._state_buffers()

    def step(self) -> None:
        if self._fused():
            self._step_fused()
        else:
            self._step_loop()

    def _step_fused(self) -> None:
        data, grad = self.arena.data, self.arena.grad
        square_avg = self._square_avg_flat
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        square_avg *= self.alpha
        square_avg += (1.0 - self.alpha) * grad * grad
        update = grad / (np.sqrt(square_avg) + self.eps)
        if self.momentum:
            buffer = self._buffer_flat
            buffer *= self.momentum
            buffer += update
            update = buffer
        data -= self.lr * update

    def _step_loop(self) -> None:
        for param, square_avg, buffer in zip(self.parameters,
                                             self._square_avg, self._buffer):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            square_avg *= self.alpha
            square_avg += (1.0 - self.alpha) * grad * grad
            update = grad / (np.sqrt(square_avg) + self.eps)
            if self.momentum:
                buffer *= self.momentum
                buffer += update
                update = buffer
            param.data -= self.lr * update


class Adagrad(Optimizer):
    """Adagrad (Duchi et al.): per-coordinate accumulated squared gradients."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 0.01,
                 eps: float = 1e-10, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.eps = eps
        self.weight_decay = weight_decay
        self._accumulator_flat, self._accumulator = self._state_buffers()

    def step(self) -> None:
        if self._fused():
            self._step_fused()
        else:
            self._step_loop()

    def _step_fused(self) -> None:
        data, grad = self.arena.data, self.arena.grad
        accumulator = self._accumulator_flat
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        accumulator += grad * grad
        data -= self.lr * grad / (np.sqrt(accumulator) + self.eps)

    def _step_loop(self) -> None:
        for param, accumulator in zip(self.parameters, self._accumulator):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            accumulator += grad * grad
            param.data -= self.lr * grad / (np.sqrt(accumulator) + self.eps)
