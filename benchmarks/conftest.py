"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one of the paper's artefacts (Fig. 1, Fig. 2,
Fig. 3, Table III) by training the eight models under one protocol and
printing the corresponding rows.  Because several artefacts share the same
trained cells (e.g. Table III and Fig. 2 both use METR-LA), results are
cached per session by :class:`repro.core.BenchmarkMatrix`.

Environment knobs (all optional):

- ``REPRO_BENCH_SCALE``   dataset scale preset (default ``ci``)
- ``REPRO_BENCH_EPOCHS``  training epochs per run (default 3)
- ``REPRO_BENCH_BATCHES`` max mini-batches per epoch (default 12)
- ``REPRO_BENCH_REPEATS`` repeated seeds per cell (default 2; paper uses 5)
- ``REPRO_BENCH_CACHE``   directory for a persistent cell cache (off by
  default so every invocation measures fresh timings)
- ``REPRO_BENCH_TRACE``   directory for per-run telemetry: every trained
  seed writes a JSONL event trace and a ``.run.json`` manifest next to the
  benchmark's JSON results (see ``docs/observability.md``)
- ``REPRO_BENCH_MODE``    workload preset for the four ratio suites in
  ``bench_{kernels,optim,data,obs}.py`` (default ``full``; ``quick`` for
  a fast sanity pass — speedup floors, memory floors and the ≤2%
  tracing-overhead budget are only asserted in ``full`` mode)
- ``REPRO_BENCH_CHECK``   when set to ``1``/``true``, every suite above
  additionally gates its fresh timings against the committed
  ``BENCH_<suite>.json`` baseline via
  :func:`repro.bench.gate.check_records`
  (off by default; only meaningful in ``full`` mode — other modes skip
  the comparison because workloads differ)
"""

from __future__ import annotations

import os

import pytest

from repro import TrainingConfig
from repro.core import BenchmarkMatrix

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "ci")
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "3"))
BENCH_BATCHES = int(os.environ.get("REPRO_BENCH_BATCHES", "12"))
BENCH_REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "2"))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None
BENCH_TRACE = os.environ.get("REPRO_BENCH_TRACE") or None
BENCH_MODE = os.environ.get("REPRO_BENCH_MODE", "full")
BENCH_CHECK = os.environ.get("REPRO_BENCH_CHECK", "").lower() in (
    "1", "true", "yes", "on")

BENCH_CONFIG = TrainingConfig(epochs=BENCH_EPOCHS, batch_size=32,
                              max_batches_per_epoch=BENCH_BATCHES,
                              learning_rate=0.01)


@pytest.fixture(scope="session")
def matrix():
    return BenchmarkMatrix(scale=BENCH_SCALE, config=BENCH_CONFIG,
                           repeats=BENCH_REPEATS, cache_dir=BENCH_CACHE,
                           trace_dir=BENCH_TRACE)


@pytest.fixture(scope="session")
def bench_mode():
    """Workload preset for the ratio suites (``REPRO_BENCH_MODE``)."""
    from repro.bench import SUITES

    for suite in SUITES.values():
        if BENCH_MODE not in suite.modes:
            raise ValueError(
                f"REPRO_BENCH_MODE={BENCH_MODE!r} is not a known mode of "
                f"the {suite.name} suite; expected one of "
                f"{sorted(suite.modes)}")
    return BENCH_MODE


@pytest.fixture(scope="session")
def bench_check():
    """Gate fresh suite timings against the committed baseline.

    Returns ``check(suite, timings, mode)``; when ``REPRO_BENCH_CHECK``
    is on and ``BENCH_<suite>.json`` exists at the repo root, the fresh
    timings are compared via :func:`repro.bench.gate.check_records` and
    the test fails on any regression (mode mismatches are reported as
    skipped, never failed).  A no-op when the knob is off.
    """
    from pathlib import Path

    from repro.bench import load_bench_record, timings_to_record
    from repro.bench.gate import check_records

    root = Path(__file__).resolve().parent.parent

    def check(suite, timings, mode):
        if not BENCH_CHECK:
            return None
        baseline_path = root / f"BENCH_{suite}.json"
        if not baseline_path.exists():
            return None
        current = timings_to_record(timings, mode, suite=suite)
        report = check_records(current, load_bench_record(baseline_path))
        print()
        print(report.render())
        assert report.passed, (
            f"bench check failed against {baseline_path.name}: "
            + "; ".join(f.detail or f.status for f in report.failures))
        return report

    return check
