"""repro — reproduction of "An Empirical Experiment on Deep Learning Models
for Predicting Traffic Data" (Lee et al., ICDE 2021).

Subpackages
-----------
- :mod:`repro.nn` — numpy autograd deep-learning framework (the PyTorch
  substitute; see DESIGN.md).
- :mod:`repro.graph` — road networks, Gaussian-kernel adjacency, Laplacian
  and diffusion operators.
- :mod:`repro.datasets` — traffic simulator and the seven synthetic
  PeMS-style datasets of Table I.
- :mod:`repro.models` — the eight benchmark models + baselines.
- :mod:`repro.core` — the benchmark harness: metrics, difficult-interval
  extraction, experiment runner, and paper-style reports.
- :mod:`repro.train` — the unified training engine: one callback-driven
  epoch/batch loop (grad clip, LR schedule, early stop, checkpoints,
  telemetry) behind every training entry point (see ``docs/training.md``).
- :mod:`repro.obs` — experiment telemetry: typed events + pluggable sinks
  (console/JSONL/memory), ``run.json`` manifests, trace summaries (see
  ``docs/observability.md``).

Quickstart
----------
>>> from repro import load_dataset, run_experiment, TrainingConfig
>>> data = load_dataset("metr-la", scale="ci")
>>> result = run_experiment("graph-wavenet", data,
...                         TrainingConfig(epochs=2), seed=0)
>>> result.evaluation.full[15].mae    # doctest: +SKIP
"""

# Every world build and model init draws from numpy.random, which numpy
# loads lazily; load it here so the first build does not pay for it.
import numpy.random  # noqa: F401

from . import core, datasets, graph, models, nn, obs, train
from .core import (TrainingConfig, aggregate_runs, evaluate_model,
                   run_experiment, train_model)
from .datasets import load_dataset
from .models import PAPER_MODELS, create_model, model_names

__version__ = "1.0.0"

__all__ = [
    "nn", "graph", "datasets", "models", "core", "obs", "train",
    "load_dataset", "create_model", "model_names", "PAPER_MODELS",
    "TrainingConfig", "run_experiment", "train_model", "evaluate_model",
    "aggregate_runs", "__version__",
]
