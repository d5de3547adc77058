"""Seconds of a cold world build, per catalog dataset.

For each dataset at the chosen scale, times a cold
``load_dataset(name, scale=scale, cache=False)`` (network, simulation,
windows and adjacency; the on-disk cache is neither read nor written) and
the ``TrafficSimulator.run`` call inside it.  Each figure is the median of
``--repeats`` builds.  The last line gives the process's peak resident
memory, so a single dataset per process (``--datasets pemsd7``) measures
that world's cold-build peak.

A measurement script, not a test: run it from the repository root, on an
otherwise idle host::

    PYTHONPATH=src python benchmarks/bench_world_build.py --scale ci
    PYTHONPATH=src python benchmarks/bench_world_build.py --scale paper \\
        --datasets metr-la pemsd7 --repeats 1
"""

from __future__ import annotations

import argparse
import resource
import statistics
from time import perf_counter

from repro.datasets import TrafficSimulator, dataset_names, load_dataset


def cold_build(name: str, scale: str) -> tuple[float, float, tuple[int, int]]:
    """One cold build: its seconds, its simulator's seconds, and the
    world's ``(steps, sensors)``."""
    simulate: list[float] = []
    run = TrafficSimulator.run

    def timed_run(self, *args, **kwargs):
        start = perf_counter()
        try:
            return run(self, *args, **kwargs)
        finally:
            simulate.append(perf_counter() - start)

    TrafficSimulator.run = timed_run
    try:
        start = perf_counter()
        data = load_dataset(name, scale=scale, cache=False)
        total = perf_counter() - start
    finally:
        TrafficSimulator.run = run
    return total, simulate[0], data.values.shape


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="ci",
                        choices=["ci", "bench", "paper"])
    parser.add_argument("--datasets", nargs="+", default=dataset_names(),
                        choices=dataset_names(), metavar="NAME")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    print(f"{'dataset':<10} {'steps':>7} {'sensors':>7} "
          f"{'cold build s':>13} {'simulate s':>11}")
    for name in args.datasets:
        builds = [cold_build(name, args.scale) for _ in range(args.repeats)]
        steps, sensors = builds[0][2]
        total = statistics.median(b[0] for b in builds)
        simulate = statistics.median(b[1] for b in builds)
        print(f"{name:<10} {steps:>7} {sensors:>7} "
              f"{total:>13.4f} {simulate:>11.4f}")
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mib:.1f} MiB over {args.repeats} repeat(s) "
          f"at scale {args.scale}")


if __name__ == "__main__":
    main()
