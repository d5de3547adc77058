"""Checkpointing: model + optimizer state round trip, training resume."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Tensor
from repro.nn.checkpoint import (load_checkpoint, load_optimizer_state,
                                 optimizer_state, save_checkpoint)
from repro.nn.optim import Adam


class Net(Module):
    def __init__(self, seed=0):
        super().__init__()
        gen = np.random.default_rng(seed)
        self.fc1 = Linear(4, 8, rng=gen)
        self.fc2 = Linear(8, 1, rng=gen)

    def forward(self, x):
        return self.fc2(self.fc1(x).tanh())


def train_steps(model, optimizer, x, y, steps):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = ((model(x) - y) ** 2).mean()
        loss.backward()
        optimizer.step()
    return loss.item()


@pytest.fixture
def batch(rng):
    return (Tensor(rng.normal(size=(16, 4))),
            Tensor(rng.normal(size=(16, 1))))


class TestOptimizerState:
    def test_adam_roundtrip(self, batch):
        model = Net()
        optimizer = Adam(model.parameters(), lr=0.01)
        train_steps(model, optimizer, *batch, steps=3)
        state = optimizer_state(optimizer)

        clone_model = Net()
        clone_model.load_state_dict(model.state_dict())
        clone_optimizer = Adam(clone_model.parameters(), lr=0.999)
        load_optimizer_state(clone_optimizer, state)
        assert clone_optimizer.lr == 0.01
        assert clone_optimizer._step_count == optimizer._step_count
        for m1, m2 in zip(optimizer._m, clone_optimizer._m):
            np.testing.assert_array_equal(m1, m2)


class TestRoundTripAllOptimizers:
    """Neither moment buffer may be silently dropped by the state dict.

    Historically ``optimizer_state`` dropped whole buffer families, so
    resumed runs restarted their adaptive scaling from zero.
    """

    @pytest.mark.parametrize("kwargs", [
        pytest.param(dict(weight_decay=1e-4), id="adam")])
    def test_roundtrip(self, batch, kwargs):
        model = Net()
        optimizer = Adam(model.parameters(), lr=0.02, **kwargs)
        train_steps(model, optimizer, *batch, steps=3)
        state = optimizer_state(optimizer)
        assert np.abs(optimizer._m_flat).sum() > 0
        assert np.abs(optimizer._v_flat).sum() > 0

        clone = Adam(Net().parameters(), lr=0.77, **kwargs)
        load_optimizer_state(clone, state)
        assert clone.lr == 0.02
        np.testing.assert_array_equal(clone._m_flat, optimizer._m_flat)
        np.testing.assert_array_equal(clone._v_flat, optimizer._v_flat)

    def test_wrong_parameter_count_rejected(self, batch):
        model = Net()
        optimizer = Adam(model.parameters(), lr=0.01)
        train_steps(model, optimizer, *batch, steps=1)
        state = optimizer_state(optimizer)
        smaller = Adam([Net().parameters()[0]], lr=0.01)
        with pytest.raises(ValueError, match="parameters"):
            load_optimizer_state(smaller, state)


class TestCheckpoint:
    def test_resume_reproduces_uninterrupted_training(self, batch, tmp_path):
        """train 6 steps == train 3, checkpoint, restore, train 3 more."""
        x, y = batch
        reference = Net()
        ref_optimizer = Adam(reference.parameters(), lr=0.05)
        train_steps(reference, ref_optimizer, x, y, steps=6)

        model = Net()
        optimizer = Adam(model.parameters(), lr=0.05)
        train_steps(model, optimizer, x, y, steps=3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer, metadata={"step": 3})

        resumed = Net(seed=42)           # different init, will be overwritten
        resumed_optimizer = Adam(resumed.parameters(), lr=0.05)
        metadata = load_checkpoint(path, resumed, resumed_optimizer)
        assert metadata == {"step": 3}
        train_steps(resumed, resumed_optimizer, x, y, steps=3)

        np.testing.assert_allclose(resumed.fc1.weight.data,
                                   reference.fc1.weight.data, atol=1e-12)

    def test_model_only_checkpoint(self, batch, tmp_path):
        model = Net()
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        clone = Net(seed=9)
        metadata = load_checkpoint(path, clone)
        assert metadata == {}
        np.testing.assert_array_equal(clone.fc2.weight.data,
                                      model.fc2.weight.data)

    def test_missing_optimizer_state_raises(self, tmp_path):
        model = Net()
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        optimizer = Adam(model.parameters(), lr=0.1)
        with pytest.raises(KeyError):
            load_checkpoint(path, Net(), optimizer)

    def test_metadata_roundtrip(self, tmp_path):
        model = Net()
        path = tmp_path / "m.npz"
        save_checkpoint(path, model,
                        metadata={"epoch": 7, "best": 1.23, "name": "x"})
        metadata = load_checkpoint(path, Net())
        assert metadata == {"epoch": 7, "best": 1.23, "name": "x"}


class TestCheckpointTelemetry:
    def test_save_announces_event_on_ambient_bus(self, tmp_path):
        from repro.obs import EventBus, MemorySink, bus_scope

        model = Net()
        optimizer = Adam(model.parameters(), lr=0.1)
        path = tmp_path / "ckpt.npz"
        sink = MemorySink()
        with bus_scope(EventBus([sink])):
            save_checkpoint(path, model, optimizer, metadata={"epoch": 1})
        (event,) = sink.of_kind("checkpoint_saved")
        assert event.path == str(path)
        # 4 model arrays + lr/step/2*(m,v) optimizer arrays + metadata blob
        with np.load(path.with_suffix(".npz") if path.suffix != ".npz"
                     else path) as archive:
            assert event.num_arrays == len(archive.files)

    def test_save_without_listeners_is_silent(self, tmp_path, capsys):
        save_checkpoint(tmp_path / "m.npz", Net())
        assert capsys.readouterr().out == ""
