"""Module / Parameter abstractions (the torch.nn.Module analogue).

Modules register :class:`Parameter` attributes and child modules
automatically via ``__setattr__``; ``parameters()`` and ``state_dict()``
walk the tree.  ``train()`` / ``eval()`` set the ``training``
flag that the seq2seq models read for teacher forcing.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Node, Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A tensor flagged as learnable (``requires_grad=True``).

    A parameter may be *arena-bound* (see :class:`repro.nn.arena.ParameterArena`
    and :meth:`Module.flatten_parameters`): its ``data`` is then a view into
    one flat buffer shared by every parameter of the model, and it keeps a
    persistent flat gradient view so backward passes accumulate straight
    into the arena.  Free-standing parameters behave exactly as before.
    As in PyTorch, a parameter requires grad even when it is built under
    ``no_grad``.
    """

    __slots__ = ("_grad_view", "_arena")

    def __init__(self, data, *, dtype=None):
        super().__init__(data, dtype=dtype)
        self._node = Node(self.data.dtype)
        self._grad_view = None          # arena gradient view, when bound
        self._arena = None              # owning ParameterArena, when bound

    def zero_grad(self) -> None:
        if self._grad_view is not None:
            # Arena-bound: zero the persistent view in place so autograd
            # keeps accumulating into the flat buffer.
            self._grad_view.fill(0.0)
            self.grad = self._grad_view
        else:
            self.grad = None


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Attach non-learnable state that is saved in the state dict."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix + name + ".")

    def num_parameters(self) -> int:
        """Total number of scalar learnable parameters."""
        return sum(p.size for p in self.parameters())

    @property
    def dtype(self) -> np.dtype:
        """The float dtype the module computes in: its first parameter's,
        else its first float buffer's, else float64."""
        for _, param in self.named_parameters():
            return param.dtype
        for _, module in self.named_modules():
            for buf in module._buffers.values():
                if buf.dtype.kind == "f":
                    return buf.dtype
        return np.dtype(np.float64)

    def _cast(self, dtype) -> None:
        """Cast every parameter and float buffer of the tree to ``dtype``.

        Must run before the parameters are packed into an arena: a cast
        parameter gets a new array, which would leave the arena's buffer
        (and any optimizer over it) behind, so arena-bound ones refuse.
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        for name, param in self.named_parameters():
            if param._arena is not None:
                raise RuntimeError(
                    f"parameter {name!r} is bound to an arena; cast the "
                    "model before flattening its parameters")
            param.data = param.data.astype(dtype, copy=False)
            param._node.dtype = dtype       # its gradients follow
        for _, module in self.named_modules():
            for name, buf in module._buffers.items():
                if buf.dtype.kind == "f":
                    module._buffers[name] = buf.astype(dtype, copy=False)
                    object.__setattr__(module, name, module._buffers[name])

    def flatten_parameters(self):
        """Pack every parameter into one flat arena; returns the arena.

        All parameter data (and gradients) are rebound as views into one
        contiguous buffer pair, enabling the fused optimizer update and
        one-reduction gradient clipping (see :mod:`repro.nn.arena`).
        Idempotent: while the parameters stay bound to one arena that
        covers the tree exactly, that arena is returned.  Raises
        ``ValueError`` when some parameter is bound to an arena that does
        not cover the tree (a submodule of an already flattened model).
        """
        from .arena import arena_for

        return arena_for(self.named_parameters())

    # ------------------------------------------------------------------ #
    # modes / grads
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for mod_name, module in self.named_modules():
            for buf_name, buf in module._buffers.items():
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                state[key] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own: dict[str, np.ndarray] = {name: p for name, p in self.named_parameters()}
        for name, param in own.items():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {value.shape} vs {param.shape}")
            param.data[...] = value
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                key = f"{mod_name}.{buf_name}" if mod_name else buf_name
                if key in state:
                    module._buffers[buf_name][...] = state[key]
                    object.__setattr__(module, buf_name, module._buffers[buf_name])

    def save(self, path: str) -> None:
        """Persist the state dict to an ``.npz`` file."""
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        with np.load(path) as payload:
            self.load_state_dict({k: payload[k] for k in payload.files})

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """List container whose entries are registered as child modules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        setattr(self, f"item{len(self._items)}", module)
        self._items.append(module)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)
