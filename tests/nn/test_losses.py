"""Masked MAE: formula and null-value semantics."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.losses import masked_mae


class TestMaskedMAE:
    def test_no_nulls_equals_plain_mae(self):
        prediction = Tensor([1.0, 2.0, 3.0])
        target = Tensor([2.0, 2.0, 5.0])
        loss = masked_mae(prediction, target, null_value=None)
        assert loss.item() == pytest.approx(1.0)

    def test_zero_targets_excluded(self):
        prediction = Tensor([1.0, 10.0])
        target = Tensor([2.0, 0.0])        # second entry is missing data
        loss = masked_mae(prediction, target, null_value=0.0)
        assert loss.item() == pytest.approx(1.0)

    def test_nan_null_value(self):
        prediction = Tensor([1.0, 10.0])
        target = Tensor([2.0, np.nan])
        loss = masked_mae(prediction, target, null_value=float("nan"))
        assert loss.item() == pytest.approx(1.0)

    def test_all_null_returns_zero(self):
        loss = masked_mae(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert loss.item() == 0.0

    def test_gradient_zero_at_masked_entries(self):
        prediction = Tensor([1.0, 10.0], requires_grad=True)
        target = Tensor([2.0, 0.0])
        masked_mae(prediction, target).backward()
        assert prediction.grad[1] == 0.0
        assert prediction.grad[0] != 0.0

    def test_mask_renormalises(self):
        # With half the entries masked, the kept entries count double so the
        # loss is still the mean over valid entries.
        prediction = Tensor([3.0, 99.0, 5.0, 99.0])
        target = Tensor([1.0, 0.0, 1.0, 0.0])
        loss = masked_mae(prediction, target)
        assert loss.item() == pytest.approx(3.0)
