"""Data-pipeline speedups: lazy windows + the content-addressed cache.

Times every case in :mod:`repro.bench.data` — cold vs. cached
``load_dataset``, eager vs. lazy window construction, a full shuffled
training epoch under both pipelines, and tracemalloc peak memory of
building + iterating the dataset — in one process.  In ``full`` mode
(bench-scale worlds) it asserts the refactor's acceptance floors: cache
hits ≥5x faster than cold builds, lazy view construction ≥5x faster than
eager materialisation, lazy peak memory ≥4x below eager (measured and at
analytic paper scale), and lazy epoch throughput within 2x of eager.
``REPRO_BENCH_MODE=quick`` runs ci-scale worlds for a sanity pass without
the floors (tiny-world timings are noise-dominated).

The recorded run behind ``BENCH_data.json`` at the repo root comes from
the same suite via ``python -m repro bench data --mode full --json
BENCH_data.json``.
"""

from repro.bench import render_timings, run

#: Acceptance floors (full mode only): case name -> minimum speedup.
SPEEDUP_FLOORS = {
    "dataset_load": 5.0,      # cache hit vs cold simulate+persist
    "window_build": 5.0,      # lazy views vs eager stacking
}

#: Lazy batch gathers may cost more per epoch than eager fancy-indexing;
#: they must stay within this factor (the trade buys ~24x memory).
EPOCH_SLOWDOWN_CEILING = 2.0

#: Peak-memory ratios (full mode only): eager must need at least this
#: multiple of the lazy pipeline's bytes, measured and at paper scale.
MEMORY_RATIO_FLOOR = 4.0


def test_data_pipeline_speedups(benchmark, bench_mode, bench_check):
    timings = benchmark.pedantic(run, args=("data", bench_mode),
                                 rounds=1, iterations=1)
    print()
    print(render_timings(timings))

    by_name = {t.name: t for t in timings}
    for timing in timings:
        assert timing.reference_seconds > 0 and timing.fast_seconds > 0
    memory = by_name["resident_memory"].meta
    assert memory["eager_peak_bytes"] > memory["lazy_peak_bytes"]
    if bench_mode == "full":
        for name, floor in SPEEDUP_FLOORS.items():
            assert by_name[name].speedup >= floor, (
                f"{name}: {by_name[name].speedup:.2f}x < {floor}x floor")
        epoch = by_name["train_epoch"]
        assert epoch.speedup >= 1.0 / EPOCH_SLOWDOWN_CEILING, (
            f"train_epoch: lazy gathers {1 / epoch.speedup:.2f}x slower "
            f"than eager (> {EPOCH_SLOWDOWN_CEILING}x ceiling)")
        assert memory["memory_ratio"] >= MEMORY_RATIO_FLOOR, (
            f"measured peak-memory ratio {memory['memory_ratio']:.2f}x "
            f"< {MEMORY_RATIO_FLOOR}x floor")
        assert memory["paper_memory_ratio"] >= MEMORY_RATIO_FLOOR, (
            f"paper-scale memory ratio {memory['paper_memory_ratio']:.2f}x "
            f"< {MEMORY_RATIO_FLOOR}x floor")
    bench_check("data", timings, bench_mode)
