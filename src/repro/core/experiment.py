"""Experiment runner: the paper's controlled evaluation protocol.

One :func:`run_experiment` call reproduces the paper's per-cell procedure:
train a model on a dataset with a given seed, early-stop on validation MAE,
then evaluate on the held-out test set — full metrics and
difficult-interval metrics, per 15/30/60-minute horizon — while recording
training time per epoch, inference time, and parameter count (Table III).

Repeat-and-aggregate (the paper's five runs, mean ± std) lives in
:func:`repro.core.aggregate_runs` and the cached
:class:`repro.core.BenchmarkMatrix` orchestrator.

Every run is observable: the runner publishes typed telemetry events
(:class:`~repro.obs.RunStarted`, :class:`~repro.obs.BatchEnd`,
:class:`~repro.obs.EpochEnd`, :class:`~repro.obs.EvalDone`,
:class:`~repro.obs.RunFinished`) to a :class:`repro.obs.EventBus` — pass
``bus=`` explicitly or attach sinks to the ambient bus
(:func:`repro.obs.get_bus`).  ``verbose=True`` is just a console sink
subscribed to ``epoch_end``.  ``manifest_path=`` additionally writes a
``run.json`` reproducibility manifest (see :mod:`repro.obs.manifest`).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..datasets.catalog import LoadedDataset
from ..datasets.loader import DataLoader
from ..datasets.windows import SupervisedSplit
from ..models.base import TrafficModel, create_model
from ..nn import no_grad
from ..nn.tensor import Tensor
from ..obs.events import (EvalDone, EventBus, RunFinished, RunStarted,
                          bus_scope, get_bus)
from ..obs.spans import span
from .intervals import difficult_mask, prediction_mask
from .metrics import HorizonMetrics, evaluate_horizons

__all__ = ["TrainingConfig", "TrainingHistory", "EvaluationResult",
           "train_model", "predict", "evaluate_model", "run_experiment",
           "RunResult"]


@dataclass
class TrainingConfig:
    """Optimisation settings shared across models (the paper's premise of a
    single consistent environment)."""

    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.01
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    patience: int | None = None          # early stop on val MAE; None = off
    max_batches_per_epoch: int | None = None   # subsample epochs for speed
    eval_batch_size: int = 64
    verbose: bool = False
    # Optional per-epoch LR decay: None, "step" (x0.3 every 1/3 of the
    # epochs, DCRNN-style), "exponential" (x0.9/epoch) or "cosine".
    lr_schedule: str | None = None


@dataclass
class TrainingHistory:
    """Per-epoch records from one training run."""

    train_losses: list[float] = field(default_factory=list)
    val_maes: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def train_time_per_epoch(self) -> float:
        return float(np.mean(self.epoch_seconds)) if self.epoch_seconds else 0.0


@dataclass
class EvaluationResult:
    """Test metrics for one trained model on one dataset."""

    full: dict[int, HorizonMetrics]
    difficult: dict[int, HorizonMetrics]
    inference_seconds: float
    num_parameters: int

    def degradation(self, minutes: int, metric: str = "mae") -> float:
        """Relative performance decline (%) on difficult intervals
        (paper Fig. 2, second row)."""
        base = getattr(self.full[minutes], metric)
        hard = getattr(self.difficult[minutes], metric)
        if base == 0 or np.isnan(base) or np.isnan(hard):
            return float("nan")
        return (hard - base) / base * 100.0


@dataclass
class RunResult:
    """One (model, dataset, seed) cell: training history + evaluation."""

    model_name: str
    dataset_name: str
    seed: int
    history: TrainingHistory
    evaluation: EvaluationResult


# --------------------------------------------------------------------- #
def train_model(model: TrafficModel, dataset: LoadedDataset,
                config: TrainingConfig | None = None, seed: int = 0,
                bus: EventBus | None = None) -> TrainingHistory:
    """Train ``model`` in place; returns the training history.

    A thin wrapper over :class:`repro.train.Engine` with the default
    callback stack (gradient clipping, LR schedule, telemetry, early
    stopping) — the engine's loop reproduces the historical inline loop
    event for event.  Baselines with no parameters (or a constant
    ``training_loss``) are skipped.  Telemetry (``batch_end``/``epoch_end``
    events) goes to ``bus``, or the ambient :func:`repro.obs.get_bus` when
    none is given; ``verbose=True`` attaches a console sink limited to
    epoch lines for the duration.
    """
    from ..train.engine import Engine

    return Engine(config).fit(model, dataset, seed=seed, bus=bus)


def predict(model: TrafficModel, split: SupervisedSplit, scaler,
            batch_size: int = 64) -> tuple[np.ndarray, float]:
    """Run inference over a split; returns (predictions in original units,
    wall-clock seconds).

    Batches flow through the same :class:`~repro.datasets.DataLoader`
    gather path as training, so a lazy split never materialises its full
    input tensor for evaluation either.
    """
    model.eval()
    loader = DataLoader(split, batch_size=batch_size, shuffle=False)
    outputs = []
    start = time.perf_counter()
    with span("eval/predict", samples=split.num_samples,
              batch_size=batch_size), no_grad():
        for x, _, _ in loader:
            outputs.append(model(Tensor(x)).numpy())
    elapsed = time.perf_counter() - start
    scaled = np.concatenate(outputs, axis=0)
    return scaler.inverse_transform(scaled), elapsed


def evaluate_model(model: TrafficModel, dataset: LoadedDataset,
                   eval_batch_size: int = 64,
                   interval_window: int = 6,
                   interval_quantile: float = 0.75) -> EvaluationResult:
    """Full-test and difficult-interval metrics for a trained model."""
    split = dataset.supervised.test
    prediction, elapsed = predict(model, split, dataset.supervised.scaler,
                                  eval_batch_size)
    full = evaluate_horizons(prediction, split.y)

    hard_mask = difficult_mask(dataset.supervised.series,
                               window=interval_window,
                               quantile=interval_quantile)
    aligned = prediction_mask(hard_mask, split.start_index,
                              dataset.supervised.config.horizon)
    difficult = evaluate_horizons(prediction, split.y, mask=aligned)

    return EvaluationResult(full=full, difficult=difficult,
                            inference_seconds=elapsed,
                            num_parameters=model.num_parameters())


def run_experiment(model_name: str, dataset: LoadedDataset,
                   config: TrainingConfig | None = None, seed: int = 0,
                   bus: EventBus | None = None,
                   manifest_path: str | None = None,
                   **model_hparams) -> RunResult:
    """Train-and-evaluate one cell of the benchmark matrix.

    Training routes through :class:`repro.train.Engine` with the default
    callback stack (see :func:`train_model`).  Publishes ``run_started`` /
    ``eval_done`` / ``run_finished`` telemetry (plus the training events)
    to ``bus`` or the ambient bus; when ``manifest_path`` is given, also
    writes a ``run.json`` reproducibility manifest there (config, seed,
    parameter count, wall time, peak RSS).
    """
    config = config or TrainingConfig()
    bus = bus if bus is not None else get_bus()
    start = time.perf_counter()
    with bus_scope(bus), span("experiment/run", bus=bus, model=model_name,
                              dataset=dataset.spec.name, seed=seed):
        model = create_model(model_name, dataset.num_nodes,
                             dataset.adjacency,
                             history=dataset.supervised.config.history,
                             horizon=dataset.supervised.config.horizon,
                             in_features=dataset.supervised.train.num_features,
                             seed=seed, **model_hparams)
        bus.emit(RunStarted(model=model_name, dataset=dataset.spec.name,
                            seed=seed, num_parameters=model.num_parameters(),
                            config=asdict(config)))
        history = train_model(model, dataset, config, seed=seed, bus=bus)
        with span("experiment/evaluate", bus=bus):
            evaluation = evaluate_model(
                model, dataset, eval_batch_size=config.eval_batch_size)
        bus.emit(EvalDone(
            inference_seconds=evaluation.inference_seconds,
            num_parameters=evaluation.num_parameters,
            full={str(m): h.as_dict() for m, h in evaluation.full.items()},
            difficult={str(m): h.as_dict()
                       for m, h in evaluation.difficult.items()}))
        wall_seconds = time.perf_counter() - start
        best_val = (history.val_maes[history.best_epoch]
                    if history.val_maes else float("nan"))
        bus.emit(RunFinished(model=model_name, dataset=dataset.spec.name,
                             seed=seed, wall_seconds=wall_seconds,
                             best_epoch=history.best_epoch,
                             best_val_mae=best_val))
        if manifest_path is not None:
            from ..obs.manifest import build_manifest, write_manifest
            manifest = build_manifest(
                model=model_name, dataset=dataset.spec.name, seed=seed,
                config=config, num_parameters=evaluation.num_parameters,
                wall_seconds=wall_seconds, best_epoch=history.best_epoch,
                best_val_mae=None if np.isnan(best_val) else float(best_val),
                test_mae_15=float(evaluation.full[15].mae)
                if 15 in evaluation.full else None)
            write_manifest(manifest_path, manifest)
    return RunResult(model_name=model_name, dataset_name=dataset.spec.name,
                     seed=seed, history=history, evaluation=evaluation)
