"""Kernel speedups: the fast engine vs. the reference ``np.add.at`` paths.

Times every case in :mod:`repro.bench.kernels` — conv2d forward/backward,
the raw col2im scatter, split/unbind view gradients, a GRU step, a full
STGCN training step, and Graph-WaveNet's ``F.einsum`` graph propagation
against direct ``np.einsum`` calls — in one process, prints the table,
and (in ``full`` mode) asserts the speedup floors: ≥2x on the conv2d
backward microbenchmark, ≥1.5x on the STGCN train step, and ≥2x on the
einsum graph convolution (a fall back to ``np.einsum``'s loop reads
about 1x).  ``REPRO_BENCH_MODE=quick`` runs tiny shapes for a sanity pass
without the threshold asserts (small-shape timings are noise-dominated).

The recorded run behind ``BENCH_kernels.json`` at the repo root comes from
the same suite via ``python -m repro bench kernels --mode full --json
BENCH_kernels.json``.
"""

from repro.bench import render_timings, run

#: Acceptance floors (full mode only): case name -> minimum speedup.
SPEEDUP_FLOORS = {
    "conv2d_backward": 2.0,
    "stgcn_train_step": 1.5,
    "einsum_graph_conv": 2.0,
}


def test_kernel_speedups(benchmark, bench_mode, bench_check):
    timings = benchmark.pedantic(run, args=("kernels", bench_mode),
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
    bench_check("kernels", timings, bench_mode)
