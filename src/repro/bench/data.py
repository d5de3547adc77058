"""Data-pipeline benchmark suite: cache and lazy-window speedups.

The controlled benchmark feeds eight models the same seven datasets, so at
scale the data layer — simulation, window construction, batch iteration —
bounds experiment throughput before any model math runs.  This suite
measures the two claims of the lazy/cached pipeline refactor in one
process:

- ``dataset_load``     cold ``load_dataset`` (simulate + persist) vs. a
  content-addressed cache hit (archive read + lazy windows)
- ``window_build``     eager window materialisation
  (``make_windows(...).materialize()``) vs. lazy view-backed construction
- ``train_epoch``      one shuffled ``DataLoader`` epoch over the train
  split: eager fancy-indexing vs. on-demand gathers (meta records
  batches/sec under both pipelines)
- ``resident_memory``  tracemalloc peak of building + iterating the
  dataset, eager vs. lazy; meta records the measured peaks, their ratio,
  and the analytic eager/lazy byte estimate at paper scale

The CLI front-end is ``python -m repro bench data`` (``--json`` records
``BENCH_data.json``).  See ``docs/data.md``.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
import tracemalloc

import numpy as np

from ..datasets.cache import DatasetCache
from ..datasets.catalog import DATASETS, _scaled_size, load_dataset
from ..datasets.loader import DataLoader
from ..datasets.windows import WindowConfig, make_windows
from .harness import Suite, best_of

__all__ = ["SUITE", "estimate_dataset_nbytes"]

#: Per-mode workloads.  ``quick`` keeps the suite under a few seconds (the
#: tier-1 smoke test runs it); ``full`` is the recorded configuration
#: behind ``BENCH_data.json`` and the one with asserted floors.
MODES: dict[str, dict] = {
    "quick": dict(repeats=2, dataset="metr-la", scale="ci", batch_size=32),
    "full": dict(repeats=3, dataset="metr-la", scale="bench", batch_size=32),
}


@contextlib.contextmanager
def _scoped_cache_dir():
    """Point ``REPRO_CACHE_DIR`` at a throwaway directory for the block,
    so benchmark loads never touch (or benefit from) the user's cache."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            yield DatasetCache(tmp)
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous


def estimate_dataset_nbytes(num_nodes: int, num_steps: int,
                            config: WindowConfig | None = None
                            ) -> tuple[int, int]:
    """Analytic (eager, lazy) resident bytes for a dataset geometry.

    Eager counts the stacked ``(S, T', N, 2)`` inputs plus ``(S, T, N)``
    targets over all windows; lazy counts the window source (raw + scaled
    series and the scaled time signal) — views and indices are noise.
    """
    config = config or WindowConfig()
    window = config.history + config.horizon
    samples = max(0, num_steps - window + 1)      # across the three splits
    itemsize = 8
    per_sample = (config.history * num_nodes * 2
                  + config.horizon * num_nodes) * itemsize
    eager = samples * per_sample
    lazy = (2 * num_steps * num_nodes + 2 * num_steps) * itemsize
    return eager, lazy


# --------------------------------------------------------------------- #
# cases
# --------------------------------------------------------------------- #
def _case_dataset_load(sizes: dict, rng: np.random.Generator):
    name, scale = sizes["dataset"], sizes["scale"]

    with _scoped_cache_dir() as store:
        def cold():
            store.clear()
            load_dataset(name, scale=scale, cache=True)

        cold_seconds = best_of(cold, sizes["repeats"], warmup=False)
        load_dataset(name, scale=scale, cache=True)    # populate the entry

        def warm():
            load_dataset(name, scale=scale, cache=True)

        warm_seconds = best_of(warm, sizes["repeats"])
        entry_bytes = sum(e.size_bytes for e in store.entries())

    meta = {"dataset": name, "scale": scale, "entry_bytes": entry_bytes}
    return cold_seconds, warm_seconds, meta


def _case_window_build(sizes: dict, rng: np.random.Generator):
    data = load_dataset(sizes["dataset"], scale=sizes["scale"], cache=False)
    series = data.supervised.series
    time_of_day = data.simulation.time_of_day

    def eager():
        make_windows(series, time_of_day).materialize()

    def lazy():
        make_windows(series, time_of_day)

    eager_seconds = best_of(eager, sizes["repeats"])
    lazy_seconds = best_of(lazy, sizes["repeats"])
    meta = {"dataset": sizes["dataset"], "scale": sizes["scale"],
            "num_steps": len(series), "num_nodes": series.shape[1]}
    return eager_seconds, lazy_seconds, meta


def _epoch(split, scaler, batch_size: int) -> int:
    loader = DataLoader(split, batch_size=batch_size, shuffle=True, seed=0,
                        target_scaler=scaler)
    batches = 0
    for x, y, _ in loader:
        batches += 1
    return batches


def _case_train_epoch(sizes: dict, rng: np.random.Generator):
    data = load_dataset(sizes["dataset"], scale=sizes["scale"], cache=False)
    scaler = data.supervised.scaler
    lazy_split = data.supervised.train
    eager = make_windows(data.supervised.series,
                         data.simulation.time_of_day).materialize()
    eager_split = eager.train
    batch_size = sizes["batch_size"]

    eager_seconds = best_of(
        lambda: _epoch(eager_split, eager.scaler, batch_size),
        sizes["repeats"])
    lazy_seconds = best_of(
        lambda: _epoch(lazy_split, scaler, batch_size), sizes["repeats"])
    batches = len(DataLoader(lazy_split, batch_size=batch_size))
    meta = {"dataset": sizes["dataset"], "scale": sizes["scale"],
            "batches": batches, "batch_size": batch_size,
            "eager_batches_per_sec": round(batches / eager_seconds, 1),
            "lazy_batches_per_sec": round(batches / lazy_seconds, 1)}
    return eager_seconds, lazy_seconds, meta


def _traced_pipeline(data, batch_size: int, eager: bool
                     ) -> tuple[float, int]:
    """Wall seconds + tracemalloc peak of building windows and iterating
    one epoch under one pipeline."""
    series = data.supervised.series
    time_of_day = data.simulation.time_of_day
    tracemalloc.start()
    start = time.perf_counter()
    supervised = make_windows(series, time_of_day)
    if eager:
        supervised.materialize()
    _epoch(supervised.train, supervised.scaler, batch_size)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak


def _case_resident_memory(sizes: dict, rng: np.random.Generator):
    data = load_dataset(sizes["dataset"], scale=sizes["scale"], cache=False)
    batch_size = sizes["batch_size"]
    eager_seconds, eager_peak = _traced_pipeline(data, batch_size, eager=True)
    lazy_seconds, lazy_peak = _traced_pipeline(data, batch_size, eager=False)

    spec = DATASETS[sizes["dataset"]]
    paper_nodes, paper_days = _scaled_size(spec, "paper")
    paper_eager, paper_lazy = estimate_dataset_nbytes(
        paper_nodes, paper_days * 288)
    meta = {
        "dataset": sizes["dataset"], "scale": sizes["scale"],
        "eager_peak_bytes": eager_peak,
        "lazy_peak_bytes": lazy_peak,
        "memory_ratio": round(eager_peak / max(lazy_peak, 1), 2),
        "paper_eager_bytes": paper_eager,
        "paper_lazy_bytes": paper_lazy,
        "paper_memory_ratio": round(paper_eager / max(paper_lazy, 1), 2),
    }
    return eager_seconds, lazy_seconds, meta


SUITE = Suite(
    name="data",
    modes=MODES,
    cases={
        "dataset_load": _case_dataset_load,
        "window_build": _case_window_build,
        "train_epoch": _case_train_epoch,
        "resident_memory": _case_resident_memory,
    },
    banner=("Data pipeline benchmark suite (mode={mode}) — "
            "eager windows / cold loads vs lazy gathers / cache hits"),
    help=("time the lazy window pipeline and the dataset cache against "
          "eager builds and cold loads"),
)
