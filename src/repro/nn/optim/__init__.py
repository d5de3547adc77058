"""Optimizers and LR schedulers.

All optimizers run fused single-array updates when handed a
:class:`~repro.nn.arena.ParameterArena` (or parameters bound to one), and
the per-parameter loop over a plain parameter list.
"""

from .adam import Adam, AdamW
from .optimizer import Optimizer, clip_grad_norm
from .schedulers import CosineAnnealingLR, ExponentialLR, StepLR
from .rmsprop import Adagrad, RMSprop
from .sgd import SGD

__all__ = ["Optimizer", "SGD", "Adam", "AdamW", "RMSprop", "Adagrad",
           "clip_grad_norm", "StepLR", "ExponentialLR", "CosineAnnealingLR"]
