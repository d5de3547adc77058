"""`repro.bench` — one harness for the engine's reference-vs-fast suites.

The paper's Table III is only a fair comparison if every model runs on one
shared, fast framework; these suites guard that framework's speed.  Each
times a fast path against its reference in one process and reports the
ratio:

- :mod:`repro.bench.kernels` — conv/scatter/view kernels and model steps
  against the reference ``np.add.at`` engine (``BENCH_kernels.json``)
- :mod:`repro.bench.optim` — fused arena optimizer updates against the
  per-parameter loop (``BENCH_optim.json``)
- :mod:`repro.bench.data` — lazy windows and dataset-cache hits against
  eager builds and cold loads (``BENCH_data.json``)
- :mod:`repro.bench.obs` — the cost of the tracing layer itself
  (``BENCH_obs.json``)
- :mod:`repro.bench.gate` — the ``repro bench check`` regression gate
  over the committed baselines
- :mod:`repro.bench.harness` — the shared timers, :class:`Timing`, and
  the ``BENCH_<suite>.json`` record format

:data:`SUITES` is the registry; :func:`run` runs one suite and emits one
:class:`repro.obs.BenchResult` event per case.  The CLI front-end is
``python -m repro bench <suite>`` (see ``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np

from ..obs.events import BenchResult, EventBus, get_bus
from . import data, kernels, obs, optim
from .harness import (Suite, Timing, best_of, interleaved_best,
                      load_bench_record, render_timings, timings_to_record,
                      write_bench_json)

__all__ = ["SUITES", "run", "Suite", "Timing", "best_of", "interleaved_best",
           "timings_to_record", "write_bench_json", "load_bench_record",
           "render_timings"]

#: Registered suites by name, in canonical order.
SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (kernels.SUITE, optim.SUITE, data.SUITE, obs.SUITE)
}


def run(suite: str, mode: str = "quick", bus: EventBus | None = None,
        cases: list[str] | None = None) -> list[Timing]:
    """Run one registered suite; returns per-case reference/fast timings.

    ``mode`` selects the suite's workload preset.  Every case emits a
    :class:`repro.obs.BenchResult` event on ``bus`` (the ambient bus when
    None).  ``cases`` restricts the run to a subset of case names, which
    still run in suite order.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown bench suite {suite!r}; "
                         f"expected one of {tuple(SUITES)}")
    spec = SUITES[suite]
    if mode not in spec.modes:
        raise ValueError(f"unknown bench mode {mode!r}; "
                         f"expected one of {sorted(spec.modes)}")
    unknown = set(cases or ()) - set(spec.cases)
    if unknown:
        raise ValueError(f"unknown bench case(s) {sorted(unknown)}")
    bus = bus if bus is not None else get_bus()

    results = []
    for name, make in spec.cases.items():
        if cases is not None and name not in cases:
            continue
        reference, fast, meta = make(dict(spec.modes[mode]),
                                     np.random.default_rng(spec.seed))
        timing = Timing(name=name, reference_seconds=reference,
                        fast_seconds=fast, meta=meta)
        bus.emit(BenchResult(suite=suite, name=name, mode=mode,
                             reference_seconds=reference, fast_seconds=fast,
                             speedup=timing.speedup, meta=meta))
        results.append(timing)
    return results
