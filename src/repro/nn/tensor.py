"""A reverse-mode automatic differentiation engine on top of numpy.

This module is the substrate that replaces PyTorch in the reproduction: every
model in :mod:`repro.models` is built from :class:`Tensor` operations so that
all eight architectures share one set of kernels, exactly as the paper runs
all models on one framework to keep comparisons fair.

The design is a classic dynamic tape: each :class:`Tensor` produced by an
operation keeps references to its parents and a closure that propagates the
output gradient to them.  Calling :meth:`Tensor.backward` topologically sorts
the tape and accumulates gradients into ``.grad`` (a plain numpy array).

Broadcasting follows numpy semantics; gradients of broadcast operands are
reduced back to the operand shape with :func:`unbroadcast`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "unbroadcast"]

# Global switch consulted when deciding whether a new node joins the tape.
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (like torch.no_grad)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting.

    Summation is the adjoint of numpy broadcasting: axes that were added are
    summed away, and axes that were stretched from size one are summed with
    ``keepdims``.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _scatter_add(target: np.ndarray, index, grad: np.ndarray) -> None:
    """Unbuffered scatter-add (``np.add.at``) — the slow general path.

    Kept as a module-level seam so tests can count how often the engine
    falls off the basic-index fast path.
    """
    np.add.at(target, index, grad)


def _is_basic_index(index) -> bool:
    """True when ``index`` triggers only numpy *basic* indexing.

    Basic indices (ints, slices, Ellipsis, newaxis) select each input
    element at most once, so the adjoint is a plain in-place add on a view
    — no duplicate handling needed.  Arrays, lists and boolean masks are
    *advanced* indexing and may repeat elements.
    """
    items = index if isinstance(index, tuple) else (index,)
    for item in items:
        if item is None or item is Ellipsis:
            continue
        if isinstance(item, (int, np.integer, slice)):
            continue
        return False
    return True


def _normalize_pad_width(pad_width, ndim: int) -> tuple[tuple[int, int], ...]:
    """Expand ``pad_width`` to per-axis ``(before, after)`` pairs.

    Follows :func:`numpy.pad` semantics: a scalar pads every side of every
    axis, a single ``(before, after)`` pair applies to all axes, and a
    sequence of per-axis pairs is used as given.  Anything else (wrong
    arity, negative or non-integer amounts) raises instead of silently
    mis-slicing the backward pass.
    """
    array = np.asarray(pad_width)
    if array.dtype.kind not in "iu":
        raise TypeError(
            f"pad_width must contain integers, got dtype {array.dtype}")
    try:
        pairs = np.broadcast_to(array, (ndim, 2))
    except ValueError:
        raise ValueError(
            f"pad_width {pad_width!r} is not broadcastable to ({ndim}, 2) "
            f"for a {ndim}-d tensor") from None
    if pairs.size and pairs.min() < 0:
        raise ValueError(f"pad_width must be non-negative, got {pad_width!r}")
    return tuple((int(before), int(after)) for before, after in pairs)


def _matmul_grad_a(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``a`` (numpy ``@`` rules)."""
    if a.ndim == 1 and b.ndim == 1:
        return g * b
    if a.ndim == 1:  # (k,) @ (..., k, n) -> (..., n)
        return unbroadcast((g[..., None, :] * b).sum(axis=-1), a.shape)
    if b.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
        return unbroadcast(g[..., :, None] * b, a.shape)
    return unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)


def _matmul_grad_b(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``b`` (numpy ``@`` rules)."""
    if a.ndim == 1 and b.ndim == 1:
        return g * a
    if a.ndim == 1:
        return unbroadcast(a[:, None] * g[..., None, :], b.shape)
    if b.ndim == 1:
        return unbroadcast((a * g[..., :, None]).sum(
            axis=tuple(range(a.ndim - 1))), b.shape)
    return unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)


def _freed_backward(grad: np.ndarray) -> None:
    """Placeholder closure installed by ``backward(free_graph=True)``."""
    raise RuntimeError(
        "backward through a freed graph: this tensor's tape was released "
        "by backward(free_graph=True); rebuild the graph to differentiate "
        "again")


def _logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic from one ``exp`` that cannot overflow.

    With ``e = exp(-|x|)`` the result is ``1/(1+e)`` for ``x >= 0`` and
    ``e/(1+e)`` below — the same ``exp`` arguments as the textbook
    ``1/(1+exp(-x))`` / ``exp(x)/(1+exp(x))`` split, so the values are
    bitwise those of that split.  Since ``e <= 1``, ``max(e, x >= 0)`` is
    exactly the numerator (1 or ``e``); it selects without a branchy
    ``np.where`` over a random sign mask.
    """
    e = np.abs(x, out=np.empty(np.shape(x), dtype=x.dtype))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    array = np.asarray(value, dtype=dtype)
    if array.dtype.kind not in "fiub":
        raise TypeError(f"unsupported dtype {array.dtype}")
    if array.dtype.kind in "iub":
        array = array.astype(np.float64 if dtype is None else dtype)
    return array


class Tensor:
    """A numpy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Integer input is promoted to float.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "op", "_grad_borrowed")

    def __init__(self, data, requires_grad: bool = False, *, dtype=None,
                 _parents: tuple["Tensor", ...] = (),
                 _backward: Callable[[np.ndarray], None] | None = None,
                 op: str = ""):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self._grad_borrowed = False
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.op = op

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None], op: str) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires,
                      _parents=tuple(parents), _backward=backward, op=op)

    def _coerce(self, other) -> "Tensor":
        """``other`` as a Tensor operand of a binary op with ``self``.

        A scalar (a Python number, a numpy scalar or a 0-d array) takes
        ``self``'s dtype: NumPy 2 would promote a float32 array against a
        float64 scalar, so ``x * 0.5`` stays in ``x``'s dtype.  Arrays
        keep their own dtype.
        """
        if isinstance(other, Tensor):
            return other
        if np.ndim(other) == 0:
            return Tensor(other, dtype=self.data.dtype)
        return Tensor(other)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add one gradient contribution into :attr:`grad`.

        An interior node (one with a backward closure) *borrows* its first
        contribution when it is a C-contiguous array of the node's dtype:
        it stores the array itself, with no copy.  Nothing writes into a
        borrowed buffer — a second contribution allocates ``grad + g``,
        which the node owns (and adds into in place) from then on.
        Leaves always copy their first contribution, since
        ``clip_grad_norm`` and the optimizers scale and update leaf
        gradients in place, and two leaves may be handed the same array.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            dtype = self.data.dtype
            self._grad_borrowed = (self._backward is not None
                                   and type(grad) is np.ndarray
                                   and grad.dtype == dtype
                                   and grad.flags.c_contiguous)
            self.grad = (grad if self._grad_borrowed
                         else np.array(grad, dtype=dtype, copy=True))
        elif self._grad_borrowed:
            self.grad = (self.grad + grad).astype(self.data.dtype, copy=False)
            self._grad_borrowed = False
        else:
            # Reuse the owned buffer: one pass, no temporary.
            np.add(self.grad, grad, out=self.grad)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None, *,
                 free_graph: bool = False) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so scalars need no argument, matching the
        usual loss.backward() idiom).

        With ``free_graph=True`` the tape is torn down as soon as the pass
        completes: intermediate nodes drop their parent references,
        backward closures, and gradient buffers, so the whole graph (and
        every activation captured by its closures) becomes collectible
        immediately.  This cuts peak RSS during training, where each batch
        builds a fresh graph anyway; a second backward through a freed
        graph raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            # A copy: the tape never aliases the caller's array.
            grad = np.array(grad, dtype=self.data.dtype, copy=True)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        # Reset *intermediate* gradients (nodes produced by ops) so repeated
        # backward passes through the same graph do not re-propagate stale
        # values; leaves (parameters/inputs, _backward is None) accumulate
        # across calls as usual.
        for node in topo:
            if node._backward is not None:
                node.grad = None

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if free_graph:
                    # All consumers already ran (reverse-topological order),
                    # so this buffer can never be read again.
                    node.grad = None
        if free_graph:
            for node in topo:
                if node._backward is not None:
                    node._parents = ()
                    node._backward = _freed_backward

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(-g, other.shape))

        return self._make(out_data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(g * self.data, other.shape))

        return self._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(
                    -g * self.data / (other.data ** 2), other.shape))

        return self._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return self._make(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        if isinstance(exponent, np.generic):
            # A numpy scalar exponent is not "weak": as a Python number it
            # keeps the base's dtype.
            exponent = exponent.item()
        out_data = self.data ** exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        """Batched matrix multiply following numpy @ semantics."""
        other = self._coerce(other)
        out_data = self.data @ other.data
        a, b = self.data, other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_matmul_grad_a(g, a, b))
            if other.requires_grad:
                other._accumulate(_matmul_grad_b(g, a, b))

        return self._make(out_data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * 0.5 / out_data)

        return self._make(out_data, (self,), backward, "sqrt")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * np.sign(self.data))

        return self._make(out_data, (self,), backward, "abs")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = _logistic(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return self._make(out_data, (self,), backward, "relu")

    def maximum(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = np.maximum(self.data, other.data)
        take_self = self.data >= other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g * take_self, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(g * ~take_self, other.shape))

        return self._make(out_data, (self, other), backward, "maximum")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def backward(g: np.ndarray) -> None:
            gg = g
            if not keepdims and axis is not None:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(in_shape) for a in axes)
                for a in sorted(axes):
                    gg = np.expand_dims(gg, a)
            self._accumulate(np.broadcast_to(gg, in_shape).astype(self.data.dtype))

        return self._make(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = self.data == expanded
        # Split gradient among ties, like numpy-consistent subgradient.
        # The counts take the data's dtype: an int64 divisor would promote
        # a float32 gradient to float64.
        counts = mask.sum(axis=axis, keepdims=True, dtype=self.data.dtype)

        def backward(g: np.ndarray) -> None:
            gg = g
            if not keepdims and axis is not None:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    gg = np.expand_dims(gg, a)
            elif not keepdims and axis is None:
                gg = np.asarray(g).reshape((1,) * self.ndim)
            self._accumulate(np.broadcast_to(gg, self.shape) * mask / counts)

        return self._make(out_data, (self,), backward, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def argmax(self, axis=None) -> np.ndarray:
        """Index of the maximum (plain numpy; no gradient flows)."""
        return self.data.argmax(axis=axis)

    def argmin(self, axis=None) -> np.ndarray:
        return self.data.argmin(axis=axis)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(in_shape))

        return self._make(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.transpose(inverse))

        return self._make(out_data, (self,), backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.squeeze(g, axis=axis))

        return self._make(out_data, (self,), backward, "expand_dims")

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.expand_dims(g, axis))

        return self._make(out_data, (self,), backward, "squeeze")

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        in_shape = self.shape
        dtype = self.data.dtype
        basic = _is_basic_index(index)

        def backward(g: np.ndarray) -> None:
            full = np.zeros(in_shape, dtype=dtype)
            if basic:
                # Basic indexing selects each element at most once, so the
                # adjoint is a single in-place add on a view — no
                # duplicate-safe (and slow) scatter needed.
                full[index] += g
            else:
                _scatter_add(full, index, g)
            self._accumulate(full)

        return self._make(out_data, (self,), backward, "getitem")

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` follows numpy.pad convention.

        Accepts a scalar (all sides), one ``(before, after)`` pair (all
        axes), or per-axis pairs, exactly like :func:`numpy.pad`.
        """
        pairs = _normalize_pad_width(pad_width, self.ndim)
        out_data = np.pad(self.data, pairs)
        slices = tuple(slice(before, before + n)
                       for (before, _), n in zip(pairs, self.shape))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g[slices])

        return self._make(out_data, (self,), backward, "pad")

    def repeat(self, repeats: int, axis: int) -> "Tensor":
        """Tile along ``axis`` (numpy.repeat with scalar repeats)."""
        out_data = np.repeat(self.data, repeats, axis=axis)
        n = self.shape[axis]

        def backward(g: np.ndarray) -> None:
            new_shape = list(g.shape)
            new_shape[axis:axis + 1] = [n, repeats]
            self._accumulate(g.reshape(new_shape).sum(axis=axis + 1))

        return self._make(out_data, (self,), backward, "repeat")

    # comparison helpers return plain numpy bool arrays (no grad flows)
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other
