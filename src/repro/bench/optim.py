"""Optimizer benchmark suite: fused arena updates vs. the reference loop.

The paper's models carry hundreds of small gate matrices (DCRNN-style
recurrent cells), so the per-parameter optimizer loop used to pay one
round of numpy-call overhead per parameter per step.  This suite times
every optimizer both ways on a synthetic many-parameter model — the fused
single-array path over a :class:`repro.nn.arena.ParameterArena` against
the per-parameter reference loop
(:func:`repro.nn.optim.use_reference_optim`) — plus the two other hot
arena operations, gradient clipping and ``zero_grad``.

Cases
-----
- ``adam_step`` / ``adamw_step`` / ``sgd_step`` / ``rmsprop_step`` /
  ``adagrad_step`` — one optimizer step (with weight decay / momentum
  engaged where the optimizer supports it)
- ``clip_grad_norm``  — global-L2 norm over all gradients (one reduction
  on the flat buffer vs. a per-parameter sum)
- ``zero_grad``       — one memset of the arena grad buffer vs. a
  per-parameter loop

Both paths walk the identical arena-view state, so the comparison is
honest; every case times the reference loop first, then the fused path,
each best-of ``repeats`` after one warm-up.  The CLI front-end is
``python -m repro bench optim`` (``--json`` records ``BENCH_optim.json``).
See ``docs/training.md``.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module, Parameter
from ..nn.optim import (SGD, Adagrad, Adam, AdamW, RMSprop, clip_grad_norm,
                        reference_optim_enabled, use_reference_optim)
from .harness import Suite, best_of

__all__ = ["SUITE"]

#: Per-mode workload sizes.  ``quick`` keeps the suite under a second for
#: the tier-1 smoke test; ``full`` is the recorded configuration behind
#: ``BENCH_optim.json`` — 500 small gate-sized parameters, the
#: dispatch-bound regime the arena refactor targets (hundreds of numpy
#: calls per step in the loop path; a handful of flat-array ops fused).
#: With few huge matrices the loop path is already bandwidth-bound and
#: fusing cannot win, so that regime is deliberately not the preset.
MODES: dict[str, dict] = {
    "quick": dict(repeats=3, params=60, dim=16),
    "full": dict(repeats=5, params=500, dim=8),
}


class _SyntheticModel(Module):
    """A parameter tree shaped like a stacked recurrent model.

    ``params`` parameters cycling through gate-matrix, bias, and
    projection shapes around ``dim`` — many smallish arrays, the workload
    the arena refactor targets (not one giant matrix, where fusing would
    win nothing).
    """

    def __init__(self, params: int, dim: int, rng: np.random.Generator):
        super().__init__()
        shapes = [(3 * dim, 2 * dim), (3 * dim,), (dim, dim), (dim,)]
        for i in range(params):
            shape = shapes[i % len(shapes)]
            setattr(self, f"p{i}", Parameter(rng.normal(size=shape)))


def _timed(build):
    """Suite case from a ``build(sizes, rng) -> (step, meta)`` builder:
    ``step`` under :func:`repro.nn.optim.use_reference_optim`, then on
    the fused path."""
    def make(sizes: dict, rng: np.random.Generator):
        step, meta = build(sizes, rng)
        with use_reference_optim():
            reference = best_of(step, sizes["repeats"])
        return reference, best_of(step, sizes["repeats"]), meta

    return make


def _make_model(sizes: dict, rng: np.random.Generator):
    model = _SyntheticModel(sizes["params"], sizes["dim"], rng)
    arena = model.flatten_parameters()
    arena.grad[:] = rng.normal(size=arena.size)
    return model, arena


def _case_optimizer(cls, **kwargs):
    def make(sizes: dict, rng: np.random.Generator):
        model, arena = _make_model(sizes, rng)
        optimizer = cls(arena, lr=1e-3, **kwargs)

        def step():
            optimizer.step()

        meta = {"parameters": len(arena), "elements": arena.size,
                **{k: v for k, v in kwargs.items()}}
        return step, meta

    return make


def _case_clip_grad_norm(sizes: dict, rng: np.random.Generator):
    _, arena = _make_model(sizes, rng)
    # A norm far below the threshold: no rescale, so every call does the
    # same work (the norm reduction) on both paths.
    max_norm = float(arena.grad_norm()) * 10.0

    def step():
        clip_grad_norm(arena, max_norm)

    meta = {"parameters": len(arena), "elements": arena.size}
    return step, meta


def _case_zero_grad(sizes: dict, rng: np.random.Generator):
    model, arena = _make_model(sizes, rng)
    optimizer = SGD(arena, lr=1e-3)
    parameters = model.parameters()

    def step():
        if reference_optim_enabled():
            for param in parameters:        # the pre-arena per-param loop
                param.zero_grad()
        else:
            optimizer.zero_grad()

    meta = {"parameters": len(arena), "elements": arena.size}
    return step, meta


SUITE = Suite(
    name="optim",
    modes=MODES,
    cases={name: _timed(build) for name, build in [
        ("adam_step", _case_optimizer(Adam, weight_decay=1e-5)),
        ("adamw_step", _case_optimizer(AdamW, weight_decay=1e-2)),
        ("sgd_step", _case_optimizer(SGD, momentum=0.9, weight_decay=1e-5)),
        ("rmsprop_step", _case_optimizer(RMSprop, momentum=0.9)),
        ("adagrad_step", _case_optimizer(Adagrad)),
        ("clip_grad_norm", _case_clip_grad_norm),
        ("zero_grad", _case_zero_grad),
    ]},
    banner=("Optimizer benchmark suite (mode={mode}) — "
            "per-parameter reference loop vs fused arena updates"),
    help=("time fused arena optimizer updates against the per-parameter "
          "reference loop"),
    seed=11,
)
