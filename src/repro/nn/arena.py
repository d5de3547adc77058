"""Flat parameter arena: every ``Parameter`` as a view into one buffer.

The optimizer hot loop used to pay one round of numpy-call overhead per
parameter — DCRNN-sized models carry hundreds of small gate matrices, so
``Adam.step`` spent more time dispatching tiny ufuncs than doing math.  A
:class:`ParameterArena` packs every parameter of a module tree into one
contiguous float buffer (and a twin buffer for gradients), then rebinds
each ``Parameter`` so its ``data`` is a reshaped view of the arena.  The
parameters keep working exactly as before (layers read and write their
views in place), while global operations — optimizer moment updates,
weight decay, gradient clipping, ``zero_grad`` — collapse to single
vectorized ops over the flat buffers.

Gradients land in the arena too: an arena-bound ``Parameter`` keeps a
persistent flat gradient view (``Parameter.zero_grad`` zeroes it in place
instead of dropping it to ``None``), so the autograd engine's in-place
accumulation writes straight into ``ParameterArena.grad``.

The per-parameter layout is recorded as a list of :class:`ParamSpec`
(name/shape/offset) — the same spec the checkpoint format persists next
to the optimizer's flat state buffers (see :mod:`repro.nn.checkpoint`).

:func:`arena_for` is the one place that decides which arena holds a set
of parameters: :meth:`repro.nn.Module.flatten_parameters` and
:class:`repro.nn.optim.Adam` both ask it, so a model and its optimizer
always share one arena, and a parameter never leaves the arena it is
bound to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ParamSpec", "ParameterArena", "arena_for"]


@dataclass(frozen=True)
class ParamSpec:
    """Placement of one parameter inside a flat arena buffer."""

    name: str
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        """Number of scalar elements the parameter occupies."""
        return int(np.prod(self.shape)) if self.shape else 1


class ParameterArena:
    """One contiguous data + grad buffer covering a list of parameters.

    Construction copies every parameter's current values into the flat
    ``data`` buffer and rebinds each ``Parameter`` in place:

    - ``param.data`` becomes a reshaped view of ``arena.data``;
    - ``param.grad`` becomes a reshaped view of ``arena.grad`` (zeroed, or
      seeded with the pre-existing gradient when one was set).

    Use :meth:`repro.nn.Module.flatten_parameters` or :func:`arena_for`
    rather than constructing arenas directly — they reuse the arena the
    parameters are already bound to.
    """

    def __init__(self, named_parameters):
        named = list(named_parameters)
        if not named:
            raise ValueError("cannot build an arena with no parameters")
        seen: set[int] = set()
        unique = []
        for name, param in named:
            if id(param) in seen:       # shared/tied parameters appear once
                continue
            seen.add(id(param))
            unique.append((name, param))
        dtype = np.result_type(*(p.data.dtype for _, p in unique))

        specs: list[ParamSpec] = []
        offset = 0
        for name, param in unique:
            specs.append(ParamSpec(name=name, shape=tuple(param.shape),
                                   offset=offset))
            offset += param.size
        self.specs: tuple[ParamSpec, ...] = tuple(specs)
        self.data = np.empty(offset, dtype=dtype)
        self.grad = np.zeros(offset, dtype=dtype)
        self.parameters = tuple(param for _, param in unique)

        for spec, param in zip(self.specs, self.parameters):
            stop = spec.offset + spec.size
            self.data[spec.offset:stop] = param.data.ravel()
            data_view = self.data[spec.offset:stop].reshape(spec.shape)
            grad_view = self.grad[spec.offset:stop].reshape(spec.shape)
            if param.grad is not None:
                grad_view[...] = param.grad
            param.data = data_view
            param._grad_view = grad_view
            param._arena = self
            param.grad = grad_view

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Total number of scalar parameters in the arena."""
        return self.data.size

    def __len__(self) -> int:
        return len(self.parameters)

    def covers(self, parameters) -> bool:
        """Whether this arena binds exactly ``parameters`` (same order)."""
        parameters = list(parameters)
        return (len(parameters) == len(self.parameters)
                and all(a is b for a, b in zip(parameters, self.parameters))
                and all(p.data.base is not None
                        and self._owns(p.data) for p in parameters))

    def _owns(self, view: np.ndarray) -> bool:
        base = view
        while base.base is not None:
            base = base.base
        return base is self.data

    def zero_grad(self) -> None:
        """Zero the whole gradient buffer (one memset) and re-arm views."""
        self.grad.fill(0.0)
        for param in self.parameters:
            param.grad = param._grad_view

    def sync_grads(self) -> None:
        """Re-point stray gradients back into the arena.

        Code that assigns ``param.grad`` directly (tests, hand-rolled
        updates) bypasses the arena views; this copies such gradients into
        the flat buffer so fused optimizer math sees them.  ``None`` grads
        become zeros — the arena's semantics for "no gradient".
        """
        for param in self.parameters:
            if param.grad is param._grad_view:
                continue
            if param.grad is None:
                param._grad_view.fill(0.0)
            else:
                param._grad_view[...] = param.grad
            param.grad = param._grad_view

    def state_like(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """A zeroed flat buffer plus its per-parameter views.

        :class:`~repro.nn.optim.Adam` allocates its moment buffers this
        way: the update writes the flat array, and the views show each
        parameter's slice of it in the parameter's shape.
        """
        flat = np.zeros_like(self.data)
        views = [flat[s.offset:s.offset + s.size].reshape(s.shape)
                 for s in self.specs]
        return flat, views

    def grad_norm(self) -> float:
        """Global L2 norm of the gradient buffer (single reduction)."""
        g = self.grad
        return float(np.sqrt(float((g * g).sum())))

    def __repr__(self) -> str:
        return (f"ParameterArena({len(self.parameters)} parameters, "
                f"{self.size:,} elements, dtype={self.data.dtype})")


def arena_for(named_parameters) -> ParameterArena:
    """The arena holding ``named_parameters`` (``(name, Parameter)`` pairs).

    Parameters already bound to one arena that :meth:`~ParameterArena.covers`
    them (tied parameters counted once) keep it; a set of unbound
    parameters is packed into a new arena, which rebinds each of them to
    it.  Raises ``ValueError`` naming the first parameter that is bound to
    an arena not covering the set: rebinding it would silently detach it
    from whatever optimizer holds that arena.
    """
    named = list(named_parameters)
    unique = list({id(param): param for _, param in named}.values())
    arena = unique[0]._arena if unique else None
    if arena is not None and arena.covers(unique):
        return arena
    for name, param in named:
        if param._arena is not None:
            raise ValueError(
                f"parameter {name!r} {tuple(param.shape)} is bound to an "
                f"arena of {len(param._arena)} parameters that does not "
                f"cover the {len(unique)} requested; packing it into a new "
                "arena would detach it from that arena's optimizer")
    return ParameterArena(named)
