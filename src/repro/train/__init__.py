"""`repro.train` — the unified training engine and its callback protocol.

One :class:`Engine` owns the epoch/batch loop for every training entry
point in the benchmark (``train_model``, ``run_experiment``, sweeps, the
benchmark matrix).  Cross-cutting concerns —
gradient clipping, LR scheduling, telemetry, early stopping with
best-state restore, checkpointing — are :class:`Callback` objects hooked
into the loop; the default stack reproduces the legacy ``train_model``
behaviour byte-for-byte (see ``docs/training.md``).

Quickstart::

    from repro.train import Engine, CheckpointCallback, default_callbacks

    engine = Engine(config)
    history = engine.fit(model, dataset, seed=0)

    # checkpoint every epoch, resume later
    callbacks = default_callbacks(config) + [CheckpointCallback("run.npz")]
    Engine(config, callbacks).fit(model, dataset, resume_from="run.npz")
"""

from .callbacks import (Callback, CheckpointCallback, EarlyStoppingCallback,
                        GradClipCallback, LRScheduleCallback,
                        TelemetryCallback, default_callbacks)
from .engine import Engine, EngineState

__all__ = [
    "Engine", "EngineState",
    "Callback", "GradClipCallback", "LRScheduleCallback",
    "TelemetryCallback", "EarlyStoppingCallback", "CheckpointCallback",
    "default_callbacks",
]
