"""Eval-time robustness probes (extension).

Real deployments face degraded inputs: dead detectors (zeros), noisy
readings, and stale feeds.  These probes corrupt *test inputs only* —
models stay fixed — and measure how much each architecture's accuracy
depends on clean input, complementing the paper's difficult-interval
analysis (which varies the *target* difficulty instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.catalog import LoadedDataset
from ..datasets.loader import DataLoader
from ..datasets.windows import SupervisedSplit
from ..models.base import TrafficModel
from ..nn import no_grad
from ..nn.tensor import Tensor
from .metrics import HorizonMetrics, evaluate_horizons

__all__ = ["Corruption", "drop_sensors", "add_noise", "stale_feed",
           "robustness_probe"]


@dataclass
class Corruption:
    """A named input corruption: f(x_batch, rng) -> corrupted x_batch."""

    name: str
    apply: callable


def drop_sensors(fraction: float) -> Corruption:
    """Zero out a random subset of sensors' traffic feature per window.

    Mimics detector failure: the time feature stays (clocks don't fail).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")

    def apply(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        corrupted = x.copy()
        nodes = x.shape[2]
        num_dead = int(round(fraction * nodes))
        if num_dead == 0:
            return corrupted
        for sample in range(x.shape[0]):
            dead = rng.choice(nodes, size=num_dead, replace=False)
            corrupted[sample, :, dead, 0] = 0.0
        return corrupted

    return Corruption(name=f"drop{int(fraction * 100)}%", apply=apply)


def add_noise(std: float) -> Corruption:
    """Gaussian noise on the scaled traffic feature."""
    if std < 0:
        raise ValueError("std must be non-negative")

    def apply(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        corrupted = x.copy()
        corrupted[:, :, :, 0] += rng.normal(0.0, std, size=x.shape[:3])
        return corrupted

    return Corruption(name=f"noise{std:g}", apply=apply)


def stale_feed(steps: int) -> Corruption:
    """Freeze the last ``steps`` readings at the value before the gap
    (a feed that stopped updating)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")

    def apply(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        corrupted = x.copy()
        history = x.shape[1]
        cut = max(0, history - steps)
        frozen = corrupted[:, cut - 1 if cut > 0 else 0, :, 0]   # (S, N)
        corrupted[:, cut:, :, 0] = frozen[:, None, :]
        return corrupted

    return Corruption(name=f"stale{steps}", apply=apply)


def robustness_probe(model: TrafficModel, dataset: LoadedDataset,
                     corruptions: list[Corruption], seed: int = 0,
                     batch_size: int = 64
                     ) -> dict[str, dict[int, HorizonMetrics]]:
    """Evaluate a trained model under each corruption (plus "clean").

    Returns ``{corruption name: {minutes: HorizonMetrics}}``.
    """
    split: SupervisedSplit = dataset.supervised.test
    scaler = dataset.supervised.scaler
    results: dict[str, dict[int, HorizonMetrics]] = {}
    model.eval()
    # Batches come from the same DataLoader gather path as evaluation, so
    # a lazy split stays lazy — each corrupted batch is built on demand.
    loader = DataLoader(split, batch_size=batch_size, shuffle=False)
    for corruption in [Corruption("clean", lambda x, rng: x)] + corruptions:
        rng = np.random.default_rng(seed)
        outputs = []
        with no_grad():
            for x, _, _ in loader:
                batch = Tensor(corruption.apply(x, rng), dtype=model.dtype)
                outputs.append(model(batch).numpy())
        prediction = scaler.inverse_transform(np.concatenate(outputs, axis=0))
        results[corruption.name] = evaluate_horizons(prediction, split.y)
    return results
