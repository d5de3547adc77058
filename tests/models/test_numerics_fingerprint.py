"""Numerics fingerprints of the eight paper models, in both dtypes.

For each model in ``PAPER_MODELS``, built with seed 0 on METR-LA ``ci``
and fed the first 32 training windows, a record holds the training loss,
the global gradient norm after one backward pass and the sum of the
eval-mode predictions.  ``numerics_fingerprint.json`` is the float64
model on a float64 batch, held at ``RTOL``;
``numerics_fingerprint_float32.json`` is the float32 model (the
``create_model`` default) on a float32 batch, held at ``RTOL_FLOAT32``.
A performance change to the engine may move these by rounding only;
anything larger fails here.

Regenerate a record (only when a change is *meant* to alter the
numerics, and say so in the change log) with::

    PYTHONPATH=src python tests/models/test_numerics_fingerprint.py \
        --write float64|float32
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import PAPER_MODELS, create_model, load_dataset
from repro.nn import Tensor, no_grad

RECORD = Path(__file__).with_name("numerics_fingerprint.json")
RECORD_FLOAT32 = Path(__file__).with_name("numerics_fingerprint_float32.json")
RECORDS = {"float64": RECORD, "float32": RECORD_FLOAT32}
BATCH = 32
RTOL = 1e-9
#: float32 carries 24 bits: a BLAS with another blocking or thread count
#: moves a sum of many float32 products by a few 1e-7, and STGCN's 12
#: recursive forwards and the 32-sample gradient sums compound that.
RTOL_FLOAT32 = 1e-5


def fingerprint(name: str, dataset, dtype) -> dict[str, float]:
    split = dataset.supervised
    x, y, _ = split.train.batch(np.arange(BATCH), target_scaler=split.scaler)
    x, y = Tensor(x, dtype=dtype), Tensor(y, dtype=dtype)
    model = create_model(name, dataset.num_nodes, dataset.adjacency,
                         in_features=split.train.num_features, seed=0,
                         dtype=dtype)
    loss = model.training_loss(x, y)
    loss.backward()
    grad_norm = np.sqrt(sum(float(np.sum(p.grad ** 2))
                            for p in model.parameters()
                            if p.grad is not None))
    model.eval()
    with no_grad():
        prediction_sum = float(model(x).data.sum())
    return {"loss": loss.item(), "grad_norm": float(grad_norm),
            "prediction_sum": prediction_sum}


def test_record_covers_every_paper_model():
    assert sorted(json.loads(RECORD.read_text())) == sorted(PAPER_MODELS)


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_numerics_match_record(name, ci_dataset):
    expected = json.loads(RECORD.read_text())[name]
    actual = fingerprint(name, ci_dataset, np.float64)
    for key, value in expected.items():
        np.testing.assert_allclose(actual[key], value, rtol=RTOL, atol=0,
                                   err_msg=f"{name} {key}")


def test_float32_record_covers_every_paper_model():
    assert (sorted(json.loads(RECORD_FLOAT32.read_text()))
            == sorted(PAPER_MODELS))


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_float32_numerics_match_record(name, ci_dataset):
    expected = json.loads(RECORD_FLOAT32.read_text())[name]
    actual = fingerprint(name, ci_dataset, np.float32)
    for key, value in expected.items():
        np.testing.assert_allclose(actual[key], value, rtol=RTOL_FLOAT32,
                                   atol=0, err_msg=f"{name} {key}")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--write" \
            or sys.argv[2] not in RECORDS:
        sys.exit("usage: test_numerics_fingerprint.py --write float64|float32")
    dtype = sys.argv[2]
    data = load_dataset("metr-la", scale="ci")
    record = {name: fingerprint(name, data, dtype) for name in PAPER_MODELS}
    RECORDS[dtype].write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {RECORDS[dtype]}")
