"""Fused single-node ops against the compositions they replace.

``F.linear``, ``F.support_conv``, ``F.gru_update`` and ``F.attention``
each put one node on the tape.  Their forward must be bitwise the unfused
composition kept in :mod:`repro.nn.reference`; their gradients must agree
with it to 1e-12 relative; a constant operand gets no gradient; float32
inputs stay float32 end to end.  Whole models built on them keep the
loss and predictions bitwise and the gradients within 1e-12 of the global
gradient norm.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import PAPER_MODELS, create_model
from repro.models.graph_conv import identity_flags
from repro.nn import Tensor, functional as F, no_grad, reference
from repro.nn.gradcheck import check_gradients

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

# name -> (op over Tensors, operand shapes)
CASES = {
    "linear": (lambda x, w, b: F.linear(x, w, b),
               [(2, 3, 4), (5, 4), (5,)]),
    "support_conv": (lambda x, w, b: F.support_conv(
        x, SUPPORTS, (True, False), w, b), [(2, 4, 3), (2, 3, 5), (5,)]),
    "gru_update": (lambda u, h, c: F.gru_update(u, h, c),
                   [(3, 4), (3, 4), (3, 4)]),
    "attention": (lambda q, k, v: F.attention(q, k, v, mask=MASK),
                  [(2, 3, 5), (2, 4, 5), (2, 4, 2)]),
}


@pytest.mark.parametrize("name", FUSED)
def test_gradcheck(name, rng):
    op, shapes = CASES[name]
    assert check_gradients(op, [rng.normal(size=s) for s in shapes])


@pytest.mark.parametrize("name", FUSED)
def test_float32_stays_float32(name, rng, monkeypatch):
    """Every array the op returns or hands to ``_accumulate`` is float32
    (a leaf's ``.grad`` would hide an upcast: it casts to the leaf dtype)."""
    handed = []
    accumulate = Tensor._accumulate

    def spy(self, grad):
        handed.append(np.asarray(grad).dtype)
        accumulate(self, grad)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    op, shapes = CASES[name]
    tensors = [Tensor(rng.normal(size=s).astype(np.float32),
                      requires_grad=True) for s in shapes]
    out = op(*tensors)
    assert out.dtype == np.float32
    out.backward()
    assert len(handed) == 1 + len(tensors)
    assert set(handed) == {np.dtype(np.float32)}
    assert all(t.grad.dtype == np.float32 for t in tensors)


def _model_numerics(name, dataset, monkeypatch, oracle):
    with monkeypatch.context() as patch:
        if oracle:
            for op in FUSED:
                patch.setattr(F, op, getattr(reference, op))
        split = dataset.supervised
        x, y, _ = split.train.batch(np.arange(32), target_scaler=split.scaler)
        model = create_model(name, dataset.num_nodes, dataset.adjacency,
                             in_features=split.train.num_features, seed=0)
        loss = model.training_loss(Tensor(x), Tensor(y))
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        model.eval()
        with no_grad():
            prediction = model(Tensor(x)).data
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
