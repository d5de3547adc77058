"""Optimizer speedups: fused arena updates vs. the per-parameter loop.

Times every case in :mod:`repro.bench.optim` — one Adam step, global
gradient clipping, and ``zero_grad`` — on a synthetic model with hundreds
of small gate-sized parameters, fused over the arena and as the
per-parameter reference loop, in one process.  In ``full`` mode it
asserts the speedup floor the flat-arena refactor claims: ≥2x on each
case.  ``REPRO_BENCH_MODE=quick`` runs tiny shapes for a sanity pass
without the threshold asserts (small-shape timings are noise-dominated).

The recorded run behind ``BENCH_optim.json`` at the repo root comes from
the same suite via ``python -m repro bench optim --mode full --json
BENCH_optim.json``.
"""

from repro.bench import render_timings, run

#: Acceptance floors (full mode only): case name -> minimum speedup.
SPEEDUP_FLOORS = {
    "adam_step": 2.0,
    "clip_grad_norm": 2.0,
    "zero_grad": 2.0,
}


def test_optim_speedups(benchmark, bench_mode, bench_check):
    timings = benchmark.pedantic(run, args=("optim", bench_mode),
                                 rounds=1, iterations=1)
    print()
    print(render_timings(timings))

    by_name = {t.name: t for t in timings}
    for timing in timings:
        assert timing.reference_seconds > 0 and timing.fast_seconds > 0
    if bench_mode == "full":
        for name, floor in SPEEDUP_FLOORS.items():
            assert by_name[name].speedup >= floor, (
                f"{name}: {by_name[name].speedup:.2f}x < {floor}x floor")
    bench_check("optim", timings, bench_mode)
