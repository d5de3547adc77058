"""Weight initialisers.

All initialisers take an explicit :class:`numpy.random.Generator` so model
construction is fully deterministic given a seed — the paper repeats every
experiment five times with different seeds and reports mean ± std, which we
reproduce in :mod:`repro.core.experiment`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "kaiming_uniform", "uniform", "zeros", "ones"]


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional shapes."""
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                   gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = _fan(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                    nonlinearity: str = "relu") -> np.ndarray:
    fan_in, _ = _fan(shape)
    gain = np.sqrt(2.0) if nonlinearity == "relu" else 1.0
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform(shape: tuple[int, ...], rng: np.random.Generator,
            low: float = -0.1, high: float = 0.1) -> np.ndarray:
    return rng.uniform(low, high, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)
