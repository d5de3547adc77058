"""Observability benchmark suite: what does the tracing itself cost?

Instrumentation only earns its keep if it is effectively free when
nobody listens.  This suite measures that contract from two angles:

- ``traced_train_step``   a full :class:`repro.train.Engine` fit (STGCN
  on a CI-scale world) with span instrumentation live-but-unobserved
  (no sinks attached) vs. the same fit with spans force-disabled via
  :func:`repro.obs.disable_spans`.  ``meta.overhead_pct`` records the
  relative cost of tracing an unobserved run — the ≤2% budget the
  regression gate enforces.
- ``span_noop_vs_recorded``  the :func:`repro.obs.span` context manager
  in isolation: recorded spans (a :class:`MemorySink` attached) vs. the
  no-op fast path on a sinkless bus; meta carries ns-per-span both ways.

The CLI front-end is ``python -m repro bench obs`` (``--json`` records
``BENCH_obs.json``), and ``repro bench check`` gates the recorded
baseline.
"""

from __future__ import annotations

import numpy as np

from ..obs.events import EventBus, MemorySink
from ..obs.spans import disable_spans, span
from .harness import Suite, best_of, interleaved_best

__all__ = ["SUITE"]

#: Per-mode workloads.  ``quick`` keeps the suite under a few seconds
#: (the tier-1 smoke test runs it); ``full`` is the recorded
#: configuration behind ``BENCH_obs.json`` and the one with the asserted
#: overhead budget.
MODES: dict[str, dict] = {
    "quick": dict(repeats=2, epochs=1, max_batches=4, batch_size=8,
                  spans=2_000),
    "full": dict(repeats=5, epochs=1, max_batches=16, batch_size=16,
                 spans=20_000),
}


def _case_traced_train_step(sizes: dict, rng: np.random.Generator):
    from ..core.experiment import TrainingConfig
    from ..datasets.catalog import load_dataset
    from ..models.base import create_model
    from ..train.engine import Engine

    dataset = load_dataset("pemsd8", scale="ci")
    config = TrainingConfig(epochs=sizes["epochs"],
                            batch_size=sizes["batch_size"],
                            max_batches_per_epoch=sizes["max_batches"],
                            verbose=False)
    silent = EventBus()          # no sinks: spans take the no-op path

    def make_model():
        return create_model(
            "stgcn", dataset.num_nodes, dataset.adjacency,
            history=dataset.supervised.config.history,
            horizon=dataset.supervised.config.horizon,
            in_features=dataset.supervised.train.num_features, seed=0)

    def fit_traced():
        Engine(config).fit(make_model(), dataset, seed=0, bus=silent)

    def fit_untraced():
        with disable_spans():
            Engine(config).fit(make_model(), dataset, seed=0, bus=silent)

    reference, fast = interleaved_best(fit_untraced, fit_traced,
                                       sizes["repeats"])
    overhead_pct = (fast / reference - 1.0) * 100.0
    meta = {"overhead_pct": round(overhead_pct, 3),
            "model": "stgcn", "dataset": "pemsd8",
            "batches": sizes["max_batches"],
            "batch_size": sizes["batch_size"]}
    return reference, fast, meta


def _case_span_noop_vs_recorded(sizes: dict,
                               rng: np.random.Generator):
    n = sizes["spans"]
    recording = EventBus([MemorySink()])
    silent = EventBus()

    def spin(bus: EventBus):
        def step():
            for _ in range(n):
                with span("bench/spin", bus=bus):
                    pass
        return step

    reference = best_of(spin(recording), sizes["repeats"])
    fast = best_of(spin(silent), sizes["repeats"])
    meta = {"spans": n,
            "recorded_ns_per_span": round(reference / n * 1e9, 1),
            "noop_ns_per_span": round(fast / n * 1e9, 1)}
    return reference, fast, meta


SUITE = Suite(
    name="obs",
    modes=MODES,
    cases={
        "traced_train_step": _case_traced_train_step,
        "span_noop_vs_recorded": _case_span_noop_vs_recorded,
    },
    banner=("Observability benchmark suite (mode={mode}) — "
            "untraced vs traced-but-unobserved instrumentation"),
    help="time the observability layer itself (span overhead)",
)
