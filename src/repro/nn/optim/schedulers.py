"""Learning-rate schedulers."""

from __future__ import annotations

from .adam import Adam

__all__ = ["StepLR", "ExponentialLR", "CosineAnnealingLR"]


class _Scheduler:
    def __init__(self, optimizer: Adam):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch += 1
        self.optimizer.lr = self._lr_at(self.epoch)

    def _lr_at(self, epoch: int) -> float:
        raise NotImplementedError


class StepLR(_Scheduler):
    """Multiply LR by ``gamma`` every ``step_size`` epochs (DCRNN-style)."""

    def __init__(self, optimizer: Adam, step_size: int, gamma: float = 0.1):
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size
        self.gamma = gamma

    def _lr_at(self, epoch: int) -> float:
        return self.base_lr * self.gamma ** (epoch // self.step_size)


class ExponentialLR(_Scheduler):
    def __init__(self, optimizer: Adam, gamma: float = 0.95):
        super().__init__(optimizer)
        self.gamma = gamma

    def _lr_at(self, epoch: int) -> float:
        return self.base_lr * self.gamma ** epoch


class CosineAnnealingLR(_Scheduler):
    def __init__(self, optimizer: Adam, t_max: int, eta_min: float = 0.0):
        super().__init__(optimizer)
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        self.t_max = t_max
        self.eta_min = eta_min

    def _lr_at(self, epoch: int) -> float:
        import math
        phase = min(epoch, self.t_max) / self.t_max
        return (self.eta_min +
                (self.base_lr - self.eta_min) * 0.5 * (1 + math.cos(math.pi * phase)))
