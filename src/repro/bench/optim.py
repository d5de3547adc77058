"""Optimizer benchmark suite: fused arena updates vs. the reference loop.

The paper's models carry hundreds of small gate matrices (DCRNN-style
recurrent cells), so a per-parameter optimizer loop pays one round of
numpy-call overhead per parameter per step.  This suite times the three
hot arena operations both ways on a synthetic many-parameter model: the
fused single-array path over a :class:`repro.nn.arena.ParameterArena`
against the per-parameter oracle of :mod:`repro.nn.reference`, run on an
unflattened twin of the same model.

Cases
-----
- ``adam_step``       — one Adam step with L2 weight decay
  (:func:`repro.nn.reference.adam_step` is the reference side)
- ``clip_grad_norm``  — global-L2 norm over all gradients (one reduction
  on the flat buffer vs. :func:`repro.nn.reference.clip_grad_norm`)
- ``zero_grad``       — one memset of the arena grad buffer vs. a
  per-parameter loop

The twin is built from a generator in the same state and carries the
same gradients, so both paths do the same arithmetic; every case times
the reference loop first, then the fused path, each best-of ``repeats``
after one warm-up.  The CLI front-end is
``python -m repro bench optim`` (``--json`` records ``BENCH_optim.json``).
See ``docs/training.md``.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np

from ..nn import reference
from ..nn.module import Module, Parameter
from ..nn.optim import Adam, clip_grad_norm
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
    """Suite case from a ``build(sizes, rng, flat) -> (step, meta[,
    reference_step])`` builder: the case on the unflattened twin
    (``flat=False``, from a generator in the same state) is the reference
    side, timed first, unless the case brings its own reference closure."""
    def make(sizes: dict, rng: np.random.Generator):
        twin_rng = copy.deepcopy(rng)
        step, meta, *own_reference = build(sizes, rng, flat=True)
        reference_step = (own_reference
                          or build(sizes, twin_rng, flat=False)[:1])[0]
        return (best_of(reference_step, sizes["repeats"]),
                best_of(step, sizes["repeats"]), meta)

    return make


def _make_model(sizes: dict, rng: np.random.Generator, flat: bool):
    """The synthetic model's arena (``flat``) or, for the reference side,
    its plain parameter list, holding one gradient draw; and the meta."""
    model = _SyntheticModel(sizes["params"], sizes["dim"], rng)
    counts = [p.size for p in model.parameters()]
    draw = rng.normal(size=sum(counts))
    meta = {"parameters": len(counts), "elements": draw.size}
    if flat:
        arena = model.flatten_parameters()
        arena.grad[:] = draw
        return arena, meta
    for param, grad in zip(model.parameters(),
                           np.split(draw, np.cumsum(counts)[:-1])):
        param.grad = grad.reshape(param.shape)
    return model.parameters(), meta


def _case_adam_step(sizes: dict, rng: np.random.Generator, flat: bool):
    parameters, meta = _make_model(sizes, rng, flat)
    kwargs = dict(lr=1e-3, weight_decay=1e-5)
    meta["weight_decay"] = kwargs["weight_decay"]
    if flat:
        return Adam(parameters, **kwargs).step, meta
    m = [np.zeros_like(p.data) for p in parameters]
    v = [np.zeros_like(p.data) for p in parameters]
    steps = itertools.count(1)

    def reference_step():
        reference.adam_step(parameters, m, v, next(steps), **kwargs)

    return reference_step, meta


def _case_clip_grad_norm(sizes: dict, rng: np.random.Generator, flat: bool):
    parameters, meta = _make_model(sizes, rng, flat)
    clip = clip_grad_norm if flat else reference.clip_grad_norm
    # A norm far below the threshold: no rescale, so every call does the
    # same work (the norm reduction) on both paths.
    max_norm = clip(parameters, float("inf")) * 10.0

    def step():
        clip(parameters, max_norm)

    return step, meta


def _case_zero_grad(sizes: dict, rng: np.random.Generator, flat: bool):
    arena, meta = _make_model(sizes, rng, flat=True)
    parameters = arena.parameters

    def reference_step():
        # The per-parameter loop: each arena-bound parameter zeroes its own
        # gradient view (an unbound parameter would only drop its array).
        for param in parameters:
            param.zero_grad()

    return Adam(arena, lr=1e-3).zero_grad, meta, reference_step


SUITE = Suite(
    name="optim",
    modes=MODES,
    cases={name: _timed(build) for name, build in [
        ("adam_step", _case_adam_step),
        ("clip_grad_norm", _case_clip_grad_norm),
        ("zero_grad", _case_zero_grad),
    ]},
    banner=("Optimizer benchmark suite (mode={mode}) — "
            "per-parameter reference loop vs fused arena updates"),
    help=("time fused arena optimizer updates against the per-parameter "
          "reference loop"),
    seed=11,
)
