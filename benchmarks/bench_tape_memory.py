"""Bytes a training step keeps alive, per paper model.

For each paper model at the chosen dataset, scale and batch, one warm-up
training step runs first (so lazily built caches are not counted), then
one measured step under :mod:`tracemalloc`:

- ``live MiB``: the bytes allocated by the training forward that are still
  live when it returns and only the loss is held — what the backward
  closures saved, plus the outputs they keep;
- ``step peak MiB``: the peak of traced bytes over the forward and the
  ``backward(free_graph=True)`` that follows, both above the bytes live
  before the step.

numpy reports its buffers to tracemalloc, so for a seed the figures are
exact, not a sample of the resident set.  The models are built in
``--dtype`` (float32 by default, as ``create_model`` does) with seed 0
and their parameters packed into an arena, as the training engine does.
The last line gives the process's peak resident memory.

A measurement script, not a test: run it from the repository root::

    PYTHONPATH=src python benchmarks/bench_tape_memory.py
    PYTHONPATH=src python benchmarks/bench_tape_memory.py --dataset metr-la \\
        --scale paper --batch 64
"""

from __future__ import annotations

import argparse
import resource
import tracemalloc

import numpy as np

from repro import PAPER_MODELS, create_model, load_dataset
from repro.datasets import dataset_names
from repro.nn import Tensor

MIB = 1024 * 1024


def step_bytes(model, x: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    """``(live, peak)`` traced bytes of one training step of ``model``."""
    x, y = Tensor(x, dtype=model.dtype), Tensor(y, dtype=model.dtype)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss = model.training_loss(x, y)
        live = tracemalloc.get_traced_memory()[0] - base
        loss.backward(free_graph=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return live, peak


def measure(name: str, data, batch: int, dtype) -> tuple[int, int]:
    """One warm-up step, then the ``(live, peak)`` bytes of a second."""
    split = data.supervised
    x, y, _ = split.train.batch(np.arange(batch), target_scaler=split.scaler)
    model = create_model(name, data.num_nodes, data.adjacency,
                         in_features=split.train.num_features, seed=0,
                         dtype=dtype)
    model.flatten_parameters()
    model.train()
    model.training_loss(Tensor(x, dtype=model.dtype),
                        Tensor(y, dtype=model.dtype)).backward(
                            free_graph=True)
    return step_bytes(model, x, y)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dataset", default="pemsd7", choices=dataset_names())
    parser.add_argument("--scale", default="bench",
                        choices=["ci", "bench", "paper"])
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--dtype", default="float32",
                        choices=["float32", "float64"])
    parser.add_argument("--models", nargs="+", default=list(PAPER_MODELS),
                        choices=PAPER_MODELS, metavar="NAME")
    args = parser.parse_args(argv)
    if args.batch < 1:
        parser.error("--batch must be at least 1")

    data = load_dataset(args.dataset, scale=args.scale)
    if args.batch > data.supervised.train.num_samples:
        parser.error(f"--batch {args.batch} exceeds the "
                     f"{data.supervised.train.num_samples} training windows")
    print(f"{args.dataset} {args.scale}, {data.num_nodes} sensors, "
          f"batch {args.batch}, {args.dtype}")
    print(f"{'model':<14} {'live MiB':>9} {'step peak MiB':>14}")
    for name in args.models:
        live, peak = measure(name, data, args.batch, np.dtype(args.dtype))
        print(f"{name:<14} {live / MIB:>9.1f} {peak / MIB:>14.1f}")
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mib:.1f} MiB")


if __name__ == "__main__":
    main()
