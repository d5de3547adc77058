"""Masked mean absolute error, the training loss.

Real loop-detector feeds contain missing readings recorded as zeros; the
standard protocol (introduced by DCRNN and followed by the paper's models)
masks those entries out of both the loss and the evaluation metrics.  The
``null_value`` convention matches that literature: entries equal to
``null_value`` in the *target* are excluded.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["masked_mae"]


def _mask_for(target: Tensor, null_value: float | None
              ) -> tuple[np.ndarray, Tensor]:
    """Return (weights, cleaned target).

    Weights are normalised so the loss is the mean over valid entries; null
    entries in the target are replaced with 0 so NaN payloads cannot leak
    through the multiplication (NaN * 0 is NaN).
    """
    if null_value is None:
        return np.ones_like(target.data), target
    if np.isnan(null_value):
        mask = ~np.isnan(target.data)
    else:
        mask = ~np.isclose(target.data, null_value)
    clean = Tensor(np.where(mask, target.data, 0.0))
    weights = mask.astype(target.data.dtype)
    total = weights.mean()
    if total == 0:
        # Degenerate batch: all entries null.  Zero weights make the loss 0
        # rather than dividing by zero.
        return weights, clean
    return weights / total, clean


def masked_mae(prediction: Tensor, target: Tensor,
               null_value: float | None = 0.0) -> Tensor:
    """Mean absolute error over non-null target entries."""
    weights, target = _mask_for(target, null_value)
    return ((prediction - target).abs() * Tensor(weights)).mean()
