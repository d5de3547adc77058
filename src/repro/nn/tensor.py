"""A reverse-mode automatic differentiation engine on top of numpy.

This module is the substrate that replaces PyTorch in the reproduction: every
model in :mod:`repro.models` is built from :class:`Tensor` operations so that
all eight architectures share one set of kernels, exactly as the paper runs
all models on one framework to keep comparisons fair.

The design is a dynamic tape with PyTorch's saved-tensor rule.  Each
:class:`Tensor` that requires grad owns a small :class:`Node`: its
gradient, the backward closure that propagates that gradient, and the
nodes of its parents.  At forward time a closure captures exactly the
arrays its backward reads, plus the parents' *nodes* — never a parent
``Tensor`` — so an interior output that no closure reads is freed as soon
as the caller drops it.  Calling :meth:`Tensor.backward` topologically
sorts the nodes and accumulates gradients into ``.grad`` (a plain numpy
array).

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


def _matmul_grad_a(g: np.ndarray, a_shape: tuple[int, ...],
                   b: np.ndarray) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``a`` (numpy ``@`` rules)."""
    if len(a_shape) == 1 and b.ndim == 1:
        return g * b
    if len(a_shape) == 1:  # (k,) @ (..., k, n) -> (..., n)
        return unbroadcast((g[..., None, :] * b).sum(axis=-1), a_shape)
    if b.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
        return unbroadcast(g[..., :, None] * b, a_shape)
    return unbroadcast(g @ np.swapaxes(b, -1, -2), a_shape)


def _matmul_grad_b(g: np.ndarray, a: np.ndarray,
                   b_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``b`` (numpy ``@`` rules)."""
    if a.ndim == 1 and len(b_shape) == 1:
        return g * a
    if a.ndim == 1:
        return unbroadcast(a[:, None] * g[..., None, :], b_shape)
    if len(b_shape) == 1:
        return unbroadcast((a * g[..., :, None]).sum(
            axis=tuple(range(a.ndim - 1))), b_shape)
    return unbroadcast(np.swapaxes(a, -1, -2) @ g, b_shape)


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


class Node:
    """The autograd state of one tensor: what backward needs of it.

    ``grad`` is the gradient accumulated so far, ``backward`` the closure
    that hands it on (``None`` for a leaf), and ``parents`` the nodes of
    the operands that require grad.  A node never refers to a
    :class:`Tensor`, so a tensor's array lives only as long as the tensor
    itself or a closure that saved it.  ``dtype`` is the tensor's dtype,
    which every gradient takes; code that rebinds a tensor's array to
    another dtype (``Module._cast``, the parameter arena) updates it.
    """

    __slots__ = ("grad", "backward", "parents", "dtype", "borrowed")

    def __init__(self, dtype, backward: Callable[[np.ndarray], None] | None
                 = None, parents: tuple["Node", ...] = ()):
        self.grad: np.ndarray | None = None
        self.backward = backward
        self.parents = parents
        self.dtype = dtype
        self.borrowed = False

    def accumulate(self, grad: np.ndarray) -> None:
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
        if self.grad is None:
            self.borrowed = (self.backward is not None
                             and type(grad) is np.ndarray
                             and grad.dtype == self.dtype
                             and grad.flags.c_contiguous)
            self.grad = (grad if self.borrowed
                         else np.array(grad, dtype=self.dtype, copy=True))
        elif self.borrowed:
            self.grad = (self.grad + grad).astype(self.dtype, copy=False)
            self.borrowed = False
        else:
            # Reuse the owned buffer: one pass, no temporary.
            np.add(self.grad, grad, out=self.grad)


class Tensor:
    """A numpy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Integer input is promoted to float.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "_node", "op")

    def __init__(self, data, requires_grad: bool = False, *, dtype=None):
        data = _as_array(data, dtype)
        self._node = (Node(data.dtype) if requires_grad and _GRAD_ENABLED
                      else None)
        self.data = data
        self.op = ""

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

    @property
    def requires_grad(self) -> bool:
        """Whether the tensor has a tape node (gradients flow into it)."""
        return self._node is not None

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        if not flag:
            self._node = None
        elif self._node is None:
            self._node = Node(self.data.dtype)

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient accumulated into this tensor's node, if any."""
        node = self._node
        return None if node is None else node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise RuntimeError(
                "cannot set the gradient of a tensor that does not require "
                "grad")

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        """The node's backward closure (``None`` for leaves and constants).

        Assignable, so a tracer can wrap an op's closure in a timer."""
        node = self._node
        return None if node is None else node.backward

    @_backward.setter
    def _backward(self, closure: Callable[[np.ndarray], None]) -> None:
        self._node.backward = closure

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
        """The output tensor of an op; it joins the tape when grad is on
        and some parent requires grad.  Only the parents' nodes are kept,
        and ``backward`` must capture nodes and arrays, not tensors."""
        out = Tensor.__new__(Tensor)
        out.data = data = _as_array(data)
        out.op = op
        out._node = None
        if _GRAD_ENABLED:
            nodes = [p._node for p in parents if p._node is not None]
            if nodes:
                out._node = Node(data.dtype, backward, tuple(nodes))
        return out

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

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None, *,
                 free_graph: bool = False) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so scalars need no argument, matching the
        usual loss.backward() idiom).

        With ``free_graph=True`` the tape is torn down as the pass runs:
        each node is popped, run, and at once drops its backward closure
        (with every array that closure saved), its parent links and its
        gradient buffer, so a step's peak holds the saved arrays of the
        nodes not yet reached, not of the whole tape.  Training builds a
        fresh graph per batch anyway; a second backward through a freed
        graph raises ``RuntimeError``.
        """
        root = self._node
        if root is None:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            # A copy: the tape never aliases the caller's array.
            grad = np.array(grad, dtype=self.data.dtype, copy=True)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}")

        topo: list[Node] = []
        visited: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Reset *intermediate* gradients (nodes produced by ops) so repeated
        # backward passes through the same graph do not re-propagate stale
        # values; leaves (parameters/inputs, no closure) accumulate across
        # calls as usual.
        for node in topo:
            if node.backward is not None:
                node.grad = None

        root.accumulate(grad)
        while topo:
            # Reverse-topological order: every consumer of this node has
            # already run, so its gradient is complete.
            node = topo.pop()
            backward = node.backward
            if backward is None:
                continue
            if node.grad is not None:
                backward(node.grad)
            if free_graph:
                # Nothing reads this node again; rebinding ``backward`` on
                # the next pop releases the closure's saved arrays before
                # the next closure runs.
                node.grad = None
                node.backward = _freed_backward
                node.parents = ()

    # ------------------------------------------------------------------ #
    # arithmetic — each closure captures its parents' nodes (``None`` for
    # a constant operand) and only the arrays its own gradients read
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data
        a, b = self._node, other._node
        a_shape, b_shape = self.shape, other.shape

        def backward(g: np.ndarray) -> None:
            if a is not None:
                a.accumulate(unbroadcast(g, a_shape))
            if b is not None:
                b.accumulate(unbroadcast(g, b_shape))

        return self._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data - other.data
        a, b = self._node, other._node
        a_shape, b_shape = self.shape, other.shape

        def backward(g: np.ndarray) -> None:
            if a is not None:
                a.accumulate(unbroadcast(g, a_shape))
            if b is not None:
                b.accumulate(unbroadcast(-g, b_shape))

        return self._make(out_data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data
        a, b = self._node, other._node
        a_shape, b_shape = self.shape, other.shape
        # Each operand's gradient reads the other operand.
        a_data = self.data if b is not None else None
        b_data = other.data if a is not None else None

        def backward(g: np.ndarray) -> None:
            if a is not None:
                a.accumulate(unbroadcast(g * b_data, a_shape))
            if b is not None:
                b.accumulate(unbroadcast(g * a_data, b_shape))

        return self._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data
        a, b = self._node, other._node
        a_shape, b_shape = self.shape, other.shape
        a_data = self.data if b is not None else None
        b_data = other.data

        def backward(g: np.ndarray) -> None:
            if a is not None:
                a.accumulate(unbroadcast(g / b_data, a_shape))
            if b is not None:
                b.accumulate(unbroadcast(
                    -g * a_data / (b_data ** 2), b_shape))

        return self._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self._node

        def backward(g: np.ndarray) -> None:
            a.accumulate(-g)

        return self._make(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        if isinstance(exponent, np.generic):
            # A numpy scalar exponent is not "weak": as a Python number it
            # keeps the base's dtype.
            exponent = exponent.item()
        out_data = self.data ** exponent
        a, a_data = self._node, self.data

        def backward(g: np.ndarray) -> None:
            a.accumulate(g * exponent * a_data ** (exponent - 1))

        return self._make(out_data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        """Batched matrix multiply following numpy @ semantics."""
        other = self._coerce(other)
        out_data = self.data @ other.data
        a, b = self._node, other._node
        a_shape, b_shape = self.shape, other.shape
        a_data = self.data if b is not None else None
        b_data = other.data if a is not None else None

        def backward(g: np.ndarray) -> None:
            if a is not None:
                a.accumulate(_matmul_grad_a(g, a_shape, b_data))
            if b is not None:
                b.accumulate(_matmul_grad_b(g, a_data, b_shape))

        return self._make(out_data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        a = self._node

        def backward(g: np.ndarray) -> None:
            a.accumulate(g * 0.5 / out_data)

        return self._make(out_data, (self,), backward, "sqrt")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        a, a_data = self._node, self.data

        def backward(g: np.ndarray) -> None:
            a.accumulate(g * np.sign(a_data))

        return self._make(out_data, (self,), backward, "abs")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        a = self._node

        def backward(g: np.ndarray) -> None:
            a.accumulate(g * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = _logistic(self.data)
        a = self._node

        def backward(g: np.ndarray) -> None:
            a.accumulate(g * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)
        a = self._node

        def backward(g: np.ndarray) -> None:
            a.accumulate(g * mask)

        return self._make(out_data, (self,), backward, "relu")

    def maximum(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = np.maximum(self.data, other.data)
        take_self = self.data >= other.data
        a, b = self._node, other._node
        a_shape, b_shape = self.shape, other.shape

        def backward(g: np.ndarray) -> None:
            if a is not None:
                a.accumulate(unbroadcast(g * take_self, a_shape))
            if b is not None:
                b.accumulate(unbroadcast(g * ~take_self, b_shape))

        return self._make(out_data, (self, other), backward, "maximum")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        a, in_shape, dtype = self._node, self.shape, self.data.dtype

        def backward(g: np.ndarray) -> None:
            gg = g
            if not keepdims and axis is not None:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(i % len(in_shape) for i in axes)
                for i in sorted(axes):
                    gg = np.expand_dims(gg, i)
            a.accumulate(np.broadcast_to(gg, in_shape).astype(dtype))

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
        a, in_shape = self._node, self.shape
        ndim = len(in_shape)

        def backward(g: np.ndarray) -> None:
            gg = g
            if not keepdims and axis is not None:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(i % ndim for i in axes)
                for i in sorted(axes):
                    gg = np.expand_dims(gg, i)
            elif not keepdims and axis is None:
                gg = np.asarray(g).reshape((1,) * ndim)
            a.accumulate(np.broadcast_to(gg, in_shape) * mask / counts)

        return self._make(out_data, (self,), backward, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def argmax(self, axis=None) -> np.ndarray:
        """Index of the maximum (plain numpy; no gradient flows)."""
        return self.data.argmax(axis=axis)

    def argmin(self, axis=None) -> np.ndarray:
        return self.data.argmin(axis=axis)

    # ------------------------------------------------------------------ #
    # shape manipulation: the closures keep shapes and indices, no data
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        a, in_shape = self._node, self.shape

        def backward(g: np.ndarray) -> None:
            a.accumulate(g.reshape(in_shape))

        return self._make(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)
        a = self._node

        def backward(g: np.ndarray) -> None:
            a.accumulate(g.transpose(inverse))

        return self._make(out_data, (self,), backward, "transpose")

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)
        a = self._node

        def backward(g: np.ndarray) -> None:
            a.accumulate(np.squeeze(g, axis=axis))

        return self._make(out_data, (self,), backward, "expand_dims")

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        a = self._node

        def backward(g: np.ndarray) -> None:
            a.accumulate(np.expand_dims(g, axis))

        return self._make(out_data, (self,), backward, "squeeze")

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        a, in_shape, dtype = self._node, self.shape, self.data.dtype
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
            a.accumulate(full)

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
        a = self._node

        def backward(g: np.ndarray) -> None:
            a.accumulate(g[slices])

        return self._make(out_data, (self,), backward, "pad")

    def repeat(self, repeats: int, axis: int) -> "Tensor":
        """Tile along ``axis`` (numpy.repeat with scalar repeats)."""
        out_data = np.repeat(self.data, repeats, axis=axis)
        a, n = self._node, self.shape[axis]

        def backward(g: np.ndarray) -> None:
            new_shape = list(g.shape)
            new_shape[axis:axis + 1] = [n, repeats]
            a.accumulate(g.reshape(new_shape).sum(axis=axis + 1))

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
