"""Error analysis (extension): quantifying the paper's Sec. VI claim.

The paper observes that "model performance is related to the (moving)
standard deviation of intervals" and leaves the investigation to future
work.  This module measures it: per (window, sensor), pair the local
moving-std of the target interval with the model's error there, and report
the correlation, a binned error-vs-volatility profile, and per-sensor
error maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import moving_std

__all__ = ["VolatilityProfile", "error_volatility_correlation",
           "volatility_profile", "per_sensor_errors"]


def _window_pairs(prediction: np.ndarray, target: np.ndarray,
                  series: np.ndarray, start_index: np.ndarray,
                  window: int = 6, horizon_step: int = 0,
                  null_value: float | None = 0.0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(volatility, absolute error) pairs for one forecast step."""
    if prediction.shape != target.shape:
        raise ValueError("prediction/target shape mismatch")
    volatility_series = moving_std(series, window)      # (T, N)
    positions = np.asarray(start_index) + horizon_step  # (S,)
    volatility = volatility_series[positions]           # (S, N)
    errors = np.abs(prediction[:, horizon_step] - target[:, horizon_step])
    valid = np.ones(errors.shape, dtype=bool)
    if null_value is not None:
        valid &= ~np.isclose(target[:, horizon_step], null_value)
    return volatility[valid].ravel(), errors[valid].ravel()


def error_volatility_correlation(prediction: np.ndarray, target: np.ndarray,
                                 series: np.ndarray, start_index: np.ndarray,
                                 window: int = 6, horizon_step: int = 0
                                 ) -> tuple[float, float]:
    """Pearson correlation between local volatility and absolute error.

    Returns ``(r, p)``.  A clearly positive r confirms the paper's
    observation that errors concentrate where traffic changes fast.
    """
    volatility, errors = _window_pairs(prediction, target, series,
                                       start_index, window, horizon_step)
    if len(volatility) < 3 or volatility.std() == 0 or errors.std() == 0:
        return float("nan"), 1.0
    from scipy import stats

    r, p = stats.pearsonr(volatility, errors)
    return float(r), float(p)


@dataclass
class VolatilityProfile:
    """Binned error-vs-volatility curve."""

    bin_edges: np.ndarray       # (bins+1,)
    mean_error: np.ndarray      # (bins,) mean abs error per volatility bin
    counts: np.ndarray          # (bins,)

    def render(self) -> str:
        lines = [f"{'volatility bin':<22} {'count':>8} {'mean |err|':>11}"]
        for i in range(len(self.mean_error)):
            label = f"[{self.bin_edges[i]:.2f}, {self.bin_edges[i + 1]:.2f})"
            value = ("-" if self.counts[i] == 0
                     else f"{self.mean_error[i]:.3f}")
            lines.append(f"{label:<22} {self.counts[i]:>8} {value:>11}")
        return "\n".join(lines)


def volatility_profile(prediction: np.ndarray, target: np.ndarray,
                       series: np.ndarray, start_index: np.ndarray,
                       bins: int = 5, window: int = 6,
                       horizon_step: int = 0) -> VolatilityProfile:
    """Mean absolute error per volatility quantile bin."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    volatility, errors = _window_pairs(prediction, target, series,
                                       start_index, window, horizon_step)
    if volatility.size == 0:
        raise ValueError("no valid (volatility, error) pairs")
    edges = np.quantile(volatility, np.linspace(0, 1, bins + 1))
    edges[-1] += 1e-9
    mean_error = np.zeros(bins)
    counts = np.zeros(bins, dtype=int)
    indices = np.clip(np.searchsorted(edges, volatility, side="right") - 1,
                      0, bins - 1)
    for b in range(bins):
        members = indices == b
        counts[b] = int(members.sum())
        mean_error[b] = errors[members].mean() if counts[b] else float("nan")
    return VolatilityProfile(bin_edges=edges, mean_error=mean_error,
                             counts=counts)


def per_sensor_errors(prediction: np.ndarray, target: np.ndarray,
                      horizon_step: int = 0,
                      null_value: float | None = 0.0) -> np.ndarray:
    """Mean absolute error per sensor at one forecast step: ``(N,)``."""
    errors = np.abs(prediction[:, horizon_step] - target[:, horizon_step])
    if null_value is None:
        return errors.mean(axis=0)
    valid = ~np.isclose(target[:, horizon_step], null_value)
    out = np.full(errors.shape[1], np.nan)
    for node in range(errors.shape[1]):
        mask = valid[:, node]
        if mask.any():
            out[node] = errors[mask, node].mean()
    return out
