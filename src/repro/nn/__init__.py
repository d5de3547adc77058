"""`repro.nn` — a from-scratch numpy deep-learning framework.

This replaces PyTorch in the reproduction (see DESIGN.md).  The public
surface mirrors the torch layout:

- :class:`Tensor` with reverse-mode autodiff (:mod:`repro.nn.tensor`)
- functional ops (:mod:`repro.nn.functional`)
- :class:`Module`/:class:`Parameter` (:mod:`repro.nn.module`)
- layers (:mod:`repro.nn.layers`)
- optimizers (:mod:`repro.nn.optim`)
- masked losses (:mod:`repro.nn.losses`)

Importing the package applies the glibc heap policy of
:mod:`repro.nn.heap` once.
"""

from . import (arena, checkpoint, functional, gradcheck, heap, init,
               kernels, losses, optim, profiler, summary)
from .arena import ParameterArena, ParamSpec
from .layers import (Conv2d, Embedding, GRU, GRUCell, LSTMCell,
                     LayerNorm, Linear, MultiHeadAttention)
from .module import Module, ModuleList, Parameter
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled",
    "Module", "Parameter", "ModuleList",
    "ParameterArena", "ParamSpec", "arena",
    "Linear", "Conv2d", "GRU", "GRUCell", "LSTMCell",
    "MultiHeadAttention", "LayerNorm", "Embedding",
    "functional", "init", "losses", "optim", "checkpoint", "profiler",
    "summary", "gradcheck", "kernels", "heap",
]
