"""Fused single-node ops against the compositions they replace, and the
dtype fidelity of every op.

``F.linear``, ``F.support_conv``, ``F.gru_update`` and ``F.attention``
each put one node on the tape.  Their forward must be bitwise the unfused
composition kept in :mod:`repro.nn.reference`; their gradients must agree
with it to 1e-12 relative; a constant operand gets no gradient.  Whole
float64 models built on them keep the loss and predictions bitwise and
the gradients within 1e-12 of the global gradient norm.

Every public ``Tensor`` op, every ``F.*`` op and the loss keep float32
operands float32 end to end, a Python or numpy scalar operand included,
and leave float64 operands exactly as they were before scalars took the
other operand's dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import PAPER_MODELS, create_model
from repro.models.graph_conv import identity_flags
from repro.nn import Tensor, functional as F, no_grad, reference
from repro.nn.tensor import Node
from repro.nn.gradcheck import check_gradients
from repro.nn.losses import masked_mae

SETTINGS = dict(max_examples=40, deadline=None)
RTOL = 1e-12
TINY = np.finfo(np.float64).tiny
FUSED = ("linear", "support_conv", "gru_update", "attention")

values = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
leading = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)
sides = st.integers(1, 4)


def draw_array(data, shape, transposed=False, elements=values):
    """A float64 array of ``shape``; a non-contiguous transposed view of
    a reversed-axes array when ``transposed`` (STGCN's ``(B, T, N, C)``
    view of a ``(B, C, N, T)`` tensor is one)."""
    if not transposed:
        return data.draw(arrays(np.float64, shape, elements=elements))
    return data.draw(arrays(np.float64, shape[::-1],
                            elements=elements)).transpose()


def draw_case(data, name):
    """``(call, operands)``: ``call(ops, *tensors)`` applies the op from
    module ``ops`` (``F`` or ``reference``) to one tensor per operand."""
    lead = data.draw(leading, label="leading")
    transposed = data.draw(st.booleans(), label="transposed")
    if name == "linear":
        n_in, n_out = data.draw(sides), data.draw(sides)
        operands = [draw_array(data, lead + (n_in,), transposed),
                    draw_array(data, (n_out, n_in))]
        if data.draw(st.booleans(), label="bias"):
            operands.append(draw_array(data, (n_out,)))
        return (lambda ops, *t: ops.linear(*t)), operands
    if name == "support_conv":
        nodes, c_in = data.draw(sides), data.draw(sides)
        c_out = data.draw(sides)
        identity = data.draw(st.lists(st.booleans(), min_size=1, max_size=3),
                             label="identity supports")
        supports = np.stack([np.eye(nodes) if flag
                             else draw_array(data, (nodes, nodes))
                             for flag in identity])
        flags = identity_flags(supports)
        operands = [draw_array(data, lead + (nodes, c_in), transposed),
                    draw_array(data, (len(identity), c_in, c_out))]
        if data.draw(st.booleans(), label="bias"):
            operands.append(draw_array(data, (c_out,)))
        return ((lambda ops, x, w, b=None:
                 ops.support_conv(x, supports, flags, w, b)), operands)
    if name == "gru_update":
        shape = lead + (data.draw(sides), data.draw(sides))
        gate = st.floats(0, 1, allow_nan=False)
        operands = [draw_array(data, shape, transposed, elements=gate),
                    draw_array(data, shape, transposed),
                    draw_array(data, shape)]
        return (lambda ops, *t: ops.gru_update(*t)), operands
    length_q, length_k = data.draw(sides), data.draw(sides)
    d, d_v = data.draw(sides), data.draw(sides)
    operands = [draw_array(data, lead + (length_q, d), transposed),
                draw_array(data, lead + (length_k, d)),
                draw_array(data, lead + (length_k, d_v), transposed)]
    mask = None
    if data.draw(st.booleans(), label="mask"):
        mask = data.draw(arrays(bool, (length_q, length_k)))
    return (lambda ops, *t: ops.attention(*t, mask=mask)), operands


def forward_backward(call, ops, operands, live, upstream):
    tensors = [Tensor(a, requires_grad=flag)
               for a, flag in zip(operands, live)]
    out = call(ops, *tensors)
    if out.requires_grad:
        out.backward(upstream(out.shape))
    return out, [t.grad for t in tensors]


@pytest.mark.parametrize("name", FUSED)
@given(data=st.data())
@settings(**SETTINGS)
def test_fused_matches_composition(name, data):
    call, operands = draw_case(data, name)
    live = data.draw(st.lists(st.booleans(), min_size=len(operands),
                              max_size=len(operands)), label="requires grad")
    seed = data.draw(st.integers(0, 2 ** 16), label="upstream seed")

    def upstream(shape):
        return np.random.default_rng(seed).normal(size=shape)

    fused, fused_grads = forward_backward(call, F, operands, live, upstream)
    unfused, unfused_grads = forward_backward(call, reference, operands,
                                              live, upstream)
    assert fused.op == name
    np.testing.assert_array_equal(fused.data, unfused.data)
    for flag, got, expected in zip(live, fused_grads, unfused_grads):
        if not flag:
            assert got is None and expected is None
            continue
        # Below the normal range (tiny) a result has no relative precision.
        scale = np.abs(expected).max()
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=RTOL * scale + TINY)


# Float32 supports (exact values) keep a float32 case float32 and leave a
# float64 one float64.
SUPPORTS = np.stack([np.eye(4), np.full((4, 4), 0.25)]).astype(np.float32)
MASK = np.tril(np.ones((3, 4), dtype=bool))

# A numpy scalar, as ``1.0 / np.sqrt(d)`` makes one: NumPy 2 does not treat
# it as a "weak" Python scalar, so it would promote a float32 array.
NP_SCALAR = np.float64(0.3)

# name -> (op over Tensors, operand shapes).  A name is the ``Tensor``
# attribute, ``F`` function or loss the case exercises; a suffix after
# "-" marks a further case of the same op.
CASES = {
    "linear": (lambda x, w, b: F.linear(x, w, b),
               [(2, 3, 4), (5, 4), (5,)]),
    "support_conv": (lambda x, w, b: F.support_conv(
        x, SUPPORTS, (True, False), w, b), [(2, 4, 3), (2, 3, 5), (5,)]),
    "gru_update": (lambda u, h, c: F.gru_update(u, h, c),
                   [(3, 4), (3, 4), (3, 4)]),
    "attention": (lambda q, k, v: F.attention(q, k, v, mask=MASK),
                  [(2, 3, 5), (2, 4, 5), (2, 4, 2)]),
    "__add__": (lambda a, b: a + b, [(3, 4), (4,)]),
    "__add__-scalar": (lambda a: a + 1.5, [(3, 4)]),
    "__radd__": (lambda a: 2 + a, [(3, 4)]),
    "__sub__": (lambda a, b: a - b, [(3, 4), (3, 1)]),
    "__sub__-scalar": (lambda a: a - NP_SCALAR, [(3, 4)]),
    "__rsub__": (lambda a: 1.0 - a, [(3, 4)]),
    "__mul__": (lambda a, b: a * b, [(3, 4), (4,)]),
    "__mul__-scalar": (lambda a: a * NP_SCALAR, [(3, 4)]),
    "__rmul__": (lambda a: 0.5 * a, [(3, 4)]),
    "__truediv__": (lambda a, b: a / b, [(3, 4), (4,)]),
    "__truediv__-scalar": (lambda a: a / 3, [(3, 4)]),
    "__rtruediv__": (lambda a: 1.0 / a, [(3, 4)]),
    "__neg__": (lambda a: -a, [(3, 4)]),
    "__pow__": (lambda a: a ** 2, [(3, 4)]),
    "__pow__-scalar": (lambda a: a ** np.float64(1.5), [(3, 4)]),
    "__matmul__": (lambda a, b: a @ b, [(2, 3, 4), (4, 5)]),
    "matmul": (lambda a, b: a.matmul(b), [(4,), (2, 4, 3)]),
    "sqrt": (lambda a: a.sqrt(), [(3, 4)]),
    "abs": (lambda a: a.abs(), [(3, 4)]),
    "tanh": (lambda a: a.tanh(), [(3, 4)]),
    "sigmoid": (lambda a: a.sigmoid(), [(3, 4)]),
    "relu": (lambda a: a.relu(), [(3, 4)]),
    "maximum": (lambda a, b: a.maximum(b), [(3, 4), (3, 4)]),
    "maximum-scalar": (lambda a: a.maximum(1.0), [(3, 4)]),
    "sum": (lambda a: a.sum(axis=1), [(3, 4)]),
    "mean": (lambda a: a.mean(), [(3, 4)]),
    "mean-axes": (lambda a: a.mean(axis=(0, 2), keepdims=True),
                  [(2, 3, 4)]),
    "max": (lambda a: a.max(axis=1), [(3, 4)]),
    "min": (lambda a: a.min(), [(3, 4)]),
    "reshape": (lambda a: a.reshape(4, 3), [(3, 4)]),
    "transpose": (lambda a: a.transpose(2, 0, 1), [(2, 3, 4)]),
    "T": (lambda a: a.T, [(3, 4)]),
    "swapaxes": (lambda a: a.swapaxes(0, 1), [(3, 4)]),
    "expand_dims": (lambda a: a.expand_dims(1), [(3, 4)]),
    "squeeze": (lambda a: a.squeeze(1), [(3, 1, 4)]),
    "__getitem__": (lambda a: a[:, 1:3], [(3, 4)]),
    "__getitem__-advanced": (lambda a: a[[0, 0, 2]], [(3, 4)]),
    "pad": (lambda a: a.pad(((1, 0), (0, 2))), [(3, 4)]),
    "repeat": (lambda a: a.repeat(2, axis=0), [(3, 4)]),
    "softmax": (lambda a: F.softmax(a, axis=-1), [(3, 4)]),
    "concat": (lambda a, b: F.concat([a, b], axis=1), [(3, 4), (3, 2)]),
    "stack": (lambda a, b: F.stack([a, b], axis=0), [(3, 4), (3, 4)]),
    "split": (lambda a: F.split(a, 2, axis=1)[1], [(3, 4)]),
    "unbind": (lambda a: F.unbind(a, axis=1)[2], [(3, 4)]),
    "einsum": (lambda s, x: F.einsum("nm,bcmt->bcnt", s, x),
               [(4, 4), (2, 3, 4, 5)]),
    "conv2d": (lambda x, w, b: F.conv2d(x, w, b, padding=(0, 1),
                                        dilation=(1, 2)),
               [(2, 3, 4, 6), (5, 3, 1, 2), (5,)]),
    "masked_mae": (lambda p, t: masked_mae(p, t), [(3, 4), (3, 4)]),
}

#: ``Tensor`` attributes that are not ops on the tape.
NOT_OPS = {"data", "grad", "requires_grad", "op", "shape", "ndim", "size",
           "dtype", "backward", "detach", "zero_grad", "numpy", "item",
           "argmax", "argmin"}
#: Operator methods that put a node on the tape.
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
             "__pow__", "__matmul__", "__getitem__"}


@pytest.mark.parametrize("name", FUSED)
def test_gradcheck(name, rng):
    op, shapes = CASES[name]
    assert check_gradients(op, [rng.normal(size=s) for s in shapes])


def operands(shapes, dtype):
    """Positive operands (``sqrt`` and fractional powers need them)."""
    rng = np.random.default_rng(0)
    return [rng.uniform(0.5, 2.0, size=s).astype(dtype) for s in shapes]


def test_cases_cover_every_op():
    public = {name for name in vars(Tensor) if not name.startswith("_")}
    ops = (public - NOT_OPS) | OPERATORS | set(F.__all__) | {"masked_mae"}
    assert ops == {name.split("-")[0] for name in CASES}


@pytest.mark.parametrize("name", list(CASES))
def test_float32_stays_float32(name, monkeypatch):
    """Every array the op returns or hands to ``Node.accumulate`` is float32
    (a leaf's ``.grad`` would hide an upcast: it casts to the leaf dtype)."""
    handed = []
    accumulate = Node.accumulate

    def spy(self, grad):
        handed.append(np.asarray(grad).dtype)
        accumulate(self, grad)

    monkeypatch.setattr(Node, "accumulate", spy)
    op, shapes = CASES[name]
    tensors = [Tensor(a, requires_grad=True)
               for a in operands(shapes, np.float32)]
    out = op(*tensors)
    assert out.dtype == np.float32
    out.backward()
    if name in FUSED:
        assert len(handed) == 1 + len(tensors)
    assert set(handed) == {np.dtype(np.float32)}
    assert tensors[0].grad is not None
    assert all(t.grad.dtype == np.float32 for t in tensors
               if t.grad is not None)


def _coerce_before_dtype_fidelity(self, other):
    """``Tensor._coerce`` as it was: a scalar became a float64 0-d array."""
    return other if isinstance(other, Tensor) else Tensor(other)


@pytest.mark.parametrize("name", list(CASES))
def test_float64_stays_bitwise(name, monkeypatch):
    """float64 operands give the same bits as when a scalar operand was
    always wrapped as float64."""
    op, shapes = CASES[name]

    def run():
        tensors = [Tensor(a, requires_grad=True)
                   for a in operands(shapes, np.float64)]
        out = op(*tensors)
        out.backward()
        return out.data, [t.grad for t in tensors]

    out, grads = run()
    monkeypatch.setattr(Tensor, "_coerce", _coerce_before_dtype_fidelity)
    expected_out, expected_grads = run()
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, expected_out)
    for got, expected in zip(grads, expected_grads):
        if expected is None:
            assert got is None
            continue
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)


def _model_numerics(name, dataset, monkeypatch, oracle):
    with monkeypatch.context() as patch:
        if oracle:
            for op in FUSED:
                patch.setattr(F, op, getattr(reference, op))
        split = dataset.supervised
        x, y, _ = split.train.batch(np.arange(32), target_scaler=split.scaler)
        x, y = Tensor(x, dtype=np.float64), Tensor(y, dtype=np.float64)
        model = create_model(name, dataset.num_nodes, dataset.adjacency,
                             in_features=split.train.num_features, seed=0,
                             dtype=np.float64)
        loss = model.training_loss(x, y)
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        model.eval()
        with no_grad():
            prediction = model(x).data
    return loss.data, grads, prediction


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_models_match_unfused_compositions(name, ci_dataset, monkeypatch):
    loss, grads, prediction = _model_numerics(name, ci_dataset, monkeypatch,
                                              oracle=False)
    ref_loss, ref_grads, ref_prediction = _model_numerics(
        name, ci_dataset, monkeypatch, oracle=True)
    np.testing.assert_array_equal(loss, ref_loss)
    np.testing.assert_array_equal(prediction, ref_prediction)
    norm = np.sqrt(sum(np.sum(g ** 2) for g in ref_grads))
    for got, expected in zip(grads, ref_grads):
        np.testing.assert_allclose(got, expected, rtol=0, atol=RTOL * norm)


def test_engine_swaps_fused_ops_for_compositions():
    originals = {name: getattr(F, name) for name in FUSED}
    with reference.engine():
        for name in FUSED:
            assert getattr(F, name) is getattr(reference, name)
    assert {name: getattr(F, name) for name in FUSED} == originals
