"""Tracing-overhead budget: observability must be ~free when unobserved.

Times every case in :mod:`repro.bench.obs` — a full traced-but-
unobserved ``Engine.fit`` vs. the same fit with spans force-disabled,
and the ``span`` context manager recorded vs. no-op — in one process.
In ``full`` mode it asserts the span tracing contract: tracing an
unobserved training step costs at most :data:`OVERHEAD_BUDGET_PCT`
(2%), and recording real spans into a sink stays cheap enough for
per-batch use.  ``REPRO_BENCH_MODE=quick``
runs a smaller workload for a sanity pass without the budget assert
(sub-200ms fits are noise-dominated).

The recorded run behind ``BENCH_obs.json`` at the repo root comes from
the same suite via ``python -m repro bench obs --mode full --json
BENCH_obs.json``; ``REPRO_BENCH_CHECK=1`` (or ``repro bench check``)
gates fresh timings against it.
"""

from repro.bench import render_timings, run
from repro.bench.gate import OVERHEAD_BUDGET_PCT

#: Ceiling (full mode only) on recorded-span cost: even with a live
#: MemorySink every span must stay under this many microseconds.
RECORDED_SPAN_CEILING_US = 50.0


def test_observability_overhead(benchmark, bench_mode, bench_check):
    timings = benchmark.pedantic(run, args=("obs", bench_mode),
                                 rounds=1, iterations=1)
    print()
    print(render_timings(timings))

    by_name = {t.name: t for t in timings}
    for timing in timings:
        assert timing.reference_seconds > 0 and timing.fast_seconds > 0
    spans = by_name["span_noop_vs_recorded"].meta
    assert spans["noop_ns_per_span"] < spans["recorded_ns_per_span"]
    if bench_mode == "full":
        overhead = by_name["traced_train_step"].meta["overhead_pct"]
        assert overhead <= OVERHEAD_BUDGET_PCT, (
            f"tracing an unobserved fit costs {overhead:.2f}% "
            f"(> {OVERHEAD_BUDGET_PCT}% budget)")
        assert spans["recorded_ns_per_span"] <= RECORDED_SPAN_CEILING_US * 1e3, (
            f"recorded span costs {spans['recorded_ns_per_span']:.0f}ns "
            f"(> {RECORDED_SPAN_CEILING_US}us ceiling)")
    bench_check("obs", timings, bench_mode)
