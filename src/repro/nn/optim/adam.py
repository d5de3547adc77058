"""Adam — the optimizer every model in the paper trains with — and
global-norm gradient clipping, both over a flat parameter arena.

The per-parameter forms of both, which the tests and ``repro bench
optim`` hold these to, are :func:`repro.nn.reference.adam_step` and
:func:`repro.nn.reference.clip_grad_norm`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..arena import ParameterArena, arena_for
from ..module import Parameter

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(arena: ParameterArena, max_norm: float) -> float:
    """Clip gradients in place to a global L2 norm; returns the pre-clip norm.

    All the paper's seq2seq models (DCRNN, ST-MetaNet) rely on clipping for
    stable training; we apply it uniformly across models.  The norm and
    the rescale are two vectorized ops on the arena's flat gradient buffer.
    """
    total = arena.grad_norm()
    if total > max_norm and total > 0.0:
        arena.grad *= max_norm / total
    return total


class Adam:
    """Adam (Kingma & Ba).  ``weight_decay`` here is L2-regularisation
    folded into the gradient (torch.optim.Adam semantics).

    ``parameters`` is a :class:`~repro.nn.arena.ParameterArena` or a
    sequence of :class:`Parameter`.  A sequence that is exactly the
    parameters of the arena they are bound to uses that arena; a sequence
    of unbound parameters is packed into a new arena, which rebinds them;
    any other sequence raises ``ValueError`` (see
    :func:`repro.nn.arena.arena_for`).  Each :meth:`step` is one
    fused update over the flat data, gradient and moment buffers.

    A parameter whose gradient is ``None`` at a step counts as a zero
    gradient: its moments decay and it keeps moving on them.
    """

    def __init__(self, parameters: Sequence[Parameter] | ParameterArena,
                 lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not isinstance(parameters, ParameterArena):
            parameters = arena_for((f"param{i}", param)
                                   for i, param in enumerate(parameters))
        self.arena = parameters
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m_flat, self._m = self.arena.state_like()
        self._v_flat, self._v = self.arena.state_like()
        self._decay_scratch: np.ndarray | None = None   # L2 temp

    def zero_grad(self) -> None:
        self.arena.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self._step_count
        bias2 = 1.0 - beta2 ** self._step_count
        self.arena.sync_grads()
        data, grad = self.arena.data, self.arena.grad
        m, v = self._m_flat, self._v_flat
        if self.weight_decay:
            # L2 term folded into the gradient.  Built in a persistent
            # scratch buffer: a fresh arena-sized temp every step costs
            # more than the math at this size.  Bitwise-identical to
            # ``grad + weight_decay * data`` (IEEE mul/add commute).
            if self._decay_scratch is None:
                self._decay_scratch = np.empty_like(grad)
            np.multiply(data, self.weight_decay, out=self._decay_scratch)
            np.add(self._decay_scratch, grad, out=self._decay_scratch)
            grad = self._decay_scratch
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
