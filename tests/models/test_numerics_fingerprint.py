"""Numerics fingerprint of the eight paper models.

For each model in ``PAPER_MODELS``, built with seed 0 on METR-LA ``ci``
and fed the first 32 training windows, ``numerics_fingerprint.json``
records the training loss, the global gradient norm after one backward
pass and the sum of the eval-mode predictions.  A performance change to
the engine may move these by rounding only; anything larger fails here.

Regenerate the record (only when a change is *meant* to alter the
numerics, and say so in the change log) with::

    PYTHONPATH=src python tests/models/test_numerics_fingerprint.py --write
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
BATCH = 32
RTOL = 1e-9


def fingerprint(name: str, dataset) -> dict[str, float]:
    split = dataset.supervised
    x, y, _ = split.train.batch(np.arange(BATCH), target_scaler=split.scaler)
    model = create_model(name, dataset.num_nodes, dataset.adjacency,
                         in_features=split.train.num_features, seed=0)
    loss = model.training_loss(Tensor(x), Tensor(y))
    loss.backward()
    grad_norm = np.sqrt(sum(float(np.sum(p.grad ** 2))
                            for p in model.parameters()
                            if p.grad is not None))
    model.eval()
    with no_grad():
        prediction_sum = float(model(Tensor(x)).data.sum())
    return {"loss": loss.item(), "grad_norm": float(grad_norm),
            "prediction_sum": prediction_sum}


def test_record_covers_every_paper_model():
    assert sorted(json.loads(RECORD.read_text())) == sorted(PAPER_MODELS)


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_numerics_match_record(name, ci_dataset):
    expected = json.loads(RECORD.read_text())[name]
    actual = fingerprint(name, ci_dataset)
    for key, value in expected.items():
        np.testing.assert_allclose(actual[key], value, rtol=RTOL, atol=0,
                                   err_msg=f"{name} {key}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_numerics_fingerprint.py --write")
    data = load_dataset("metr-la", scale="ci")
    record = {name: fingerprint(name, data) for name in PAPER_MODELS}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {RECORD}")
