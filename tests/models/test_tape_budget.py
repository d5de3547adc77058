"""Tape budget of the eight paper models.

The training tape holds every node's output until backward runs, so its
node count and output elements bound a step's activation memory.  Each
model's training forward on METR-LA ``ci`` (seed 0, batch 32) is profiled
with :func:`repro.nn.profiler.profile` and held to the recorded budget:
a change that puts more on the tape fails here, deterministically and
without reading RSS.  Lower the budget when a change shrinks the tape.
"""

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


def test_budget_covers_every_paper_model():
    assert sorted(BUDGET) == sorted(PAPER_MODELS)


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_training_tape_within_budget(name, ci_dataset):
    split = ci_dataset.supervised
    x, y, _ = split.train.batch(np.arange(BATCH), target_scaler=split.scaler)
    model = create_model(name, ci_dataset.num_nodes, ci_dataset.adjacency,
                         in_features=split.train.num_features, seed=0)
    with profile() as report:
        model.training_loss(Tensor(x, dtype=model.dtype),
                            Tensor(y, dtype=model.dtype))
    nodes, elements = BUDGET[name]
    assert report.total_nodes <= nodes, report.render()
    assert report.total_elements <= elements, report.render()
