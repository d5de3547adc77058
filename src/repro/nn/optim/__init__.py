"""Adam, global-norm gradient clipping and LR schedulers.

:class:`Adam` is the one optimizer: every model in the paper trains with
it.  Its step is one fused update over a
:class:`~repro.nn.arena.ParameterArena`, and :func:`clip_grad_norm`
clips the arena's flat gradient buffer.
"""

from .adam import Adam, clip_grad_norm
from .schedulers import CosineAnnealingLR, ExponentialLR, StepLR

__all__ = ["Adam", "clip_grad_norm", "StepLR", "ExponentialLR",
           "CosineAnnealingLR"]
