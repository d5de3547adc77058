"""``F.attention`` computed in chunks of its first leading axis.

With the chunk cap lowered so a small case splits into at least three
uneven chunks, the output and every gradient must be bitwise the
one-chunk result and the unfused composition in
:mod:`repro.nn.reference`: each leading index is an independent GEMM and
row softmax, and backward rebuilds each chunk's weights with the
forward's numpy calls.
"""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F, reference
from repro.nn.gradcheck import check_gradients

LEAD, HEADS, L_Q, L_K, D, D_V = 7, 2, 3, 5, 4, 3
#: Leading indices per chunk: 7 splits as 3 + 3 + 1.
PER_CHUNK = 3

rng = np.random.default_rng(11)
MASK_2D = rng.random((L_Q, L_K)) > 0.3
MASK_FULL = rng.random((LEAD, HEADS, L_Q, L_K)) > 0.3

#: name -> (leading axis of k and v, mask, which of q, k, v require grad)
CASES = {
    "uneven": (LEAD, None, (True, True, True)),
    "broadcast-kv": (1, None, (True, True, True)),
    "mask-2d": (LEAD, MASK_2D, (True, True, True)),
    "mask-full": (LEAD, MASK_FULL, (True, True, True)),
    "broadcast-kv-mask-full": (1, MASK_FULL, (True, True, True)),
    "only-v": (LEAD, MASK_2D, (False, False, True)),
}


def _cap(dtype, per_chunk=PER_CHUNK):
    """A chunk cap that holds ``per_chunk`` leading indices of weights."""
    return per_chunk * HEADS * L_Q * L_K * np.dtype(dtype).itemsize


def _operands(kv_lead, dtype):
    shapes = [(LEAD, HEADS, L_Q, D), (kv_lead, HEADS, L_K, D),
              (kv_lead, HEADS, L_K, D_V)]
    return [rng.normal(size=s).astype(dtype) for s in shapes]


def _run(op, operands, mask, live):
    tensors = [Tensor(a, requires_grad=flag)
               for a, flag in zip(operands, live)]
    out = op(*tensors, mask=mask)
    upstream = np.cos(np.arange(out.size)).reshape(out.shape)
    out.backward(upstream.astype(out.dtype))
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(CASES))
def test_chunks_match_one_chunk_and_composition(name, dtype, monkeypatch):
    kv_lead, mask, live = CASES[name]
    operands = _operands(kv_lead, dtype)
    calls = []
    weights = F._attention_weights

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return weights(*args, **kwargs)

    monkeypatch.setattr(F, "_attention_weights", counted)
    monkeypatch.setattr(F, "ATTENTION_CHUNK_BYTES", _cap(dtype))
    chunked = _run(F.attention, operands, mask, live)
    # Three uneven chunks forward, the same three again in backward.
    assert calls == [3, 3, 1, 3, 3, 1]
    monkeypatch.setattr(F, "ATTENTION_CHUNK_BYTES", _cap(dtype, LEAD))
    whole = _run(F.attention, operands, mask, live)
    composed = _run(reference.attention, operands, mask, live)
    assert chunked[0].dtype == dtype
    for got, one_chunk, expected, flag in zip(chunked, whole, composed,
                                              (True,) + live):
        if not flag:
            assert got is None and one_chunk is None and expected is None
            continue
        np.testing.assert_array_equal(got, one_chunk)
        np.testing.assert_array_equal(got, expected)


def test_gradcheck_over_chunks(monkeypatch):
    monkeypatch.setattr(F, "ATTENTION_CHUNK_BYTES", _cap(np.float64))
    operands = _operands(1, np.float64)
    operands[0] = operands[0][:, :1]       # q broadcast over the heads too
    assert check_gradients(
        lambda q, k, v: F.attention(q, k, v, mask=MASK_FULL), operands)
