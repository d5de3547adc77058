"""The paper models train and infer in float32, with no silent upcast.

Each of the eight ``PAPER_MODELS`` is built by the default
``create_model`` on METR-LA ``ci`` and trained for one ``Engine`` step,
whose per-epoch validation runs the inference path as well.  Every tape
node, every gradient handed back along the tape, the loss, the parameter
arena's data and gradient, and Adam's moments must be float32.  One
stray float64 constant promotes everything downstream of it: that costs
most of the float32 speed and fails nothing else.
"""

import numpy as np
import pytest

from repro import PAPER_MODELS, create_model
from repro.core import TrainingConfig, predict
from repro.nn import Tensor
from repro.nn.tensor import Node
from repro.train import Callback, Engine, default_callbacks

FLOAT32 = np.dtype(np.float32)


def build(name, dataset, **kwargs):
    return create_model(name, dataset.num_nodes, dataset.adjacency,
                        in_features=dataset.supervised.train.num_features,
                        seed=0, **kwargs)


class CaptureOptimizer(Callback):
    optimizer = None

    def on_fit_start(self, state):
        self.optimizer = state.optimizer


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_engine_step_stays_float32(name, ci_dataset, monkeypatch):
    nodes, handed, losses = [], [], []
    make, accumulate = Tensor._make, Node.accumulate

    def spy_make(data, parents, backward, op):
        nodes.append((op, data.dtype))
        return make(data, parents, backward, op)

    def spy_accumulate(self, grad):
        handed.append(np.asarray(grad).dtype)
        accumulate(self, grad)

    model = build(name, ci_dataset)
    training_loss = model.training_loss

    def spy_loss(x, y):
        losses.append(training_loss(x, y))
        return losses[-1]

    monkeypatch.setattr(Tensor, "_make", staticmethod(spy_make))
    monkeypatch.setattr(Node, "accumulate", spy_accumulate)
    monkeypatch.setattr(model, "training_loss", spy_loss)
    config = TrainingConfig(epochs=1, batch_size=32, max_batches_per_epoch=1)
    capture = CaptureOptimizer()
    Engine(config, callbacks=default_callbacks(config) + [capture]).fit(
        model, ci_dataset, seed=0)

    upcast = sorted({op for op, dtype in nodes if dtype != FLOAT32})
    assert nodes and not upcast, f"float64 tape nodes: {upcast}"
    assert set(handed) == {FLOAT32}
    assert len(losses) == 2                   # the probe and one step
    assert all(loss.dtype == FLOAT32 for loss in losses)
    optimizer = capture.optimizer
    for array in (optimizer.arena.data, optimizer.arena.grad,
                  optimizer._m_flat, optimizer._v_flat):
        assert array.dtype == FLOAT32


class TestCreateModelDtype:
    def test_default_is_float32(self, ci_dataset):
        model = build("stgcn", ci_dataset)
        assert model.dtype == FLOAT32
        assert {p.dtype for p in model.parameters()} == {FLOAT32}
        buffers = [buf for _, module in model.named_modules()
                   for buf in module._buffers.values()
                   if buf.dtype.kind == "f"]
        assert buffers and {buf.dtype for buf in buffers} == {FLOAT32}

    def test_float64_draws_the_same_initial_weights(self, ci_dataset):
        low = build("dcrnn", ci_dataset)
        high = build("dcrnn", ci_dataset, dtype=np.float64)
        assert high.dtype == np.float64
        for a, b in zip(low.parameters(), high.parameters()):
            np.testing.assert_array_equal(a.data, b.data.astype(np.float32))

    def test_bool_buffers_are_not_cast(self, ci_dataset):
        model = build("st-metanet", ci_dataset)
        assert model.gat.edge_mask.dtype == bool

    def test_other_dtypes_refused(self, ci_dataset):
        with pytest.raises(ValueError, match="float32 or float64"):
            build("linear", ci_dataset, dtype=np.float16)

    def test_cast_refuses_arena_bound_parameters(self, ci_dataset):
        model = build("linear", ci_dataset)
        model.flatten_parameters()
        with pytest.raises(RuntimeError, match="arena"):
            model._cast(np.float64)

    def test_parameter_free_model_follows_its_buffers(self, ci_dataset):
        assert build("last-value", ci_dataset).dtype == FLOAT32

    def test_predict_returns_float64_in_original_units(self, ci_dataset):
        model = build("linear", ci_dataset)
        split = ci_dataset.supervised
        prediction, _ = predict(model, split.test, split.scaler)
        assert prediction.dtype == np.float64
