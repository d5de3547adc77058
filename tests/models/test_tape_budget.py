"""Tape budget of the eight paper models.

Each model's training forward on METR-LA ``ci`` (seed 0, batch 32) is
held to two recorded budgets:

- its node count and output elements, from
  :func:`repro.nn.profiler.profile` — the work the forward records;
- the bytes of numpy buffers :mod:`tracemalloc` still sees once the
  forward returns and only the loss is held — what the backward
  closures saved.  A closure keeps only the arrays its backward reads,
  so an output no closure reads is freed when the model drops it, and
  the output elements do not bound a step's memory.  numpy reports its
  buffers to tracemalloc in a domain of their own, so the count is
  exact for a seed; Python objects are left out, since how many of
  them reach the allocator depends on CPython's free lists and so on
  the tests run before.

A change that puts more on the tape, or makes a closure keep more, fails
here, deterministically and without reading RSS.  Lower a budget when a
change shrinks it.
"""

import tracemalloc

import numpy as np
import pytest

from repro import PAPER_MODELS, create_model
from repro.nn import Tensor
from repro.nn.profiler import profile

BATCH = 32

#: model -> (tape nodes, output elements) of one training forward.
BUDGET = {
    "stgcn": (81, 1_804_034),
    "dcrnn": (584, 2_995_714),
    "astgcn": (119, 2_500_706),
    "st-metanet": (453, 2_134_787),
    "graph-wavenet": (81, 3_408_450),
    "stg2seq": (88, 4_368_386),
    "stsgcn": (438, 6_066_306),
    "gman": (127, 5_425_410),
}

#: model -> bytes of numpy buffers live after one training forward, with
#: only the loss held.
SAVED_BYTES = {
    "stgcn": 2_971_928,
    "dcrnn": 5_622_000,
    "astgcn": 3_814_824,
    "st-metanet": 2_090_348,
    "graph-wavenet": 8_176_756,
    "stg2seq": 5_267_740,
    "stsgcn": 9_232_936,
    "gman": 7_810_056,
}

#: Allowance over :data:`SAVED_BYTES` (the counts are exact; this leaves
#: room for a change that saves a few small arrays more).
HEADROOM = 1.01


def _model_and_batch(name, dataset):
    split = dataset.supervised
    x, y, _ = split.train.batch(np.arange(BATCH), target_scaler=split.scaler)
    model = create_model(name, dataset.num_nodes, dataset.adjacency,
                         in_features=split.train.num_features, seed=0)
    return model, Tensor(x, dtype=model.dtype), Tensor(y, dtype=model.dtype)


def test_budget_covers_every_paper_model():
    assert sorted(BUDGET) == sorted(PAPER_MODELS)
    assert sorted(SAVED_BYTES) == sorted(PAPER_MODELS)


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_training_tape_within_budget(name, ci_dataset):
    model, x, y = _model_and_batch(name, ci_dataset)
    with profile() as report:
        model.training_loss(x, y)
    nodes, elements = BUDGET[name]
    assert report.total_nodes <= nodes, report.render()
    assert report.total_elements <= elements, report.render()


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_saved_bytes_within_budget(name, ci_dataset):
    model, x, y = _model_and_batch(name, ci_dataset)
    model.training_loss(x, y)       # warm-up: lazily built caches stay out
    tracemalloc.start()
    try:
        loss = model.training_loss(x, y)
        traces = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    saved = sum(trace.size for trace in traces
                if trace.domain == np.lib.tracemalloc_domain)
    assert loss.requires_grad
    assert saved <= SAVED_BYTES[name] * HEADROOM, (
        f"{name}: {saved:,} bytes live after the forward, budget "
        f"{SAVED_BYTES[name]:,}")
