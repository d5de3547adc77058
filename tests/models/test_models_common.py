"""Contract tests shared by all registered models."""

import numpy as np
import pytest

from repro.models import (MODEL_REGISTRY, PAPER_MODELS, create_model,
                          model_names)
from repro.nn import Tensor, no_grad

ALL_MODELS = sorted(MODEL_REGISTRY)
TRAINABLE = [name for name in ALL_MODELS
             if name not in ("last-value", "historical-average")]


@pytest.fixture(scope="module")
def setup(ci_dataset):
    x = ci_dataset.supervised.train.x[:3]
    y_scaled = ci_dataset.supervised.scaler.transform(
        ci_dataset.supervised.train.y[:3])
    return ci_dataset, x, y_scaled


def as_inputs(model, *arrays):
    """The arrays as tensors in the model's dtype, as the Engine feeds
    a batch."""
    return [Tensor(a, dtype=model.dtype) for a in arrays]


class TestRegistry:
    def test_all_paper_models_registered(self):
        for name in PAPER_MODELS:
            assert name in MODEL_REGISTRY

    def test_create_unknown_raises(self, small_adjacency):
        with pytest.raises(KeyError, match="unknown model"):
            create_model("transformer-xl", small_adjacency.shape[0],
                         small_adjacency)

    def test_name_normalisation(self, small_adjacency):
        model = create_model("Graph_WaveNet", small_adjacency.shape[0],
                             small_adjacency)
        assert model.name == "graph-wavenet"

    def test_duplicate_registration_rejected(self):
        from repro.models.base import register_model, TrafficModel
        with pytest.raises(ValueError):
            @register_model("stgcn")
            class Duplicate(TrafficModel):
                pass

    def test_model_names_lists_registry(self):
        assert set(model_names()) == set(MODEL_REGISTRY)


class TestConstruction:
    def test_adjacency_shape_checked(self, small_adjacency):
        with pytest.raises(ValueError, match="adjacency"):
            create_model("stgcn", 99, small_adjacency)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_instantiation(self, name, setup):
        ds, _, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=1)
        assert model.num_nodes == ds.num_nodes

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_seed_determinism(self, name, setup):
        ds, x, _ = setup
        a = create_model(name, ds.num_nodes, ds.adjacency, seed=7)
        b = create_model(name, ds.num_nodes, ds.adjacency, seed=7)
        x, = as_inputs(a, x)
        with no_grad():
            a.eval(), b.eval()
            np.testing.assert_array_equal(a(x).data, b(x).data)

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_different_seeds_differ(self, name, setup):
        ds, x, _ = setup
        a = create_model(name, ds.num_nodes, ds.adjacency, seed=1)
        b = create_model(name, ds.num_nodes, ds.adjacency, seed=2)
        x, = as_inputs(a, x)
        with no_grad():
            a.eval(), b.eval()
            assert not np.array_equal(a(x).data, b(x).data)


class TestForwardContract:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_output_shape(self, name, setup):
        ds, x, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        with no_grad():
            model.eval()
            out = model(*as_inputs(model, x))
        assert out.shape == (3, 12, ds.num_nodes)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_output_finite(self, name, setup):
        ds, x, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        with no_grad():
            model.eval()
            assert np.isfinite(model(*as_inputs(model, x)).data).all()

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_input_validation(self, name, setup):
        ds, x, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((2, 5, ds.num_nodes, 2))))   # wrong history
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((2, 12, ds.num_nodes + 1, 2))))  # wrong N
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((2, 12, ds.num_nodes))))     # wrong ndim


class TestTrainingContract:
    @pytest.mark.parametrize("name", TRAINABLE)
    def test_all_parameters_receive_gradients(self, name, setup):
        ds, x, y_scaled = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        loss = model.training_loss(*as_inputs(model, x, y_scaled))
        loss.backward()
        missing = [pname for pname, p in model.named_parameters()
                   if p.grad is None]
        assert missing == [], f"{name}: no gradient for {missing}"

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_loss_is_finite_scalar(self, name, setup):
        ds, x, y_scaled = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        loss = model.training_loss(*as_inputs(model, x, y_scaled))
        assert loss.shape == ()
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_one_sgd_step_reduces_loss(self, name, setup):
        """A gradient step on the same batch should not increase the loss."""
        ds, x, y_scaled = setup
        # Disable teacher forcing so both loss evaluations see the same
        # computation (otherwise the comparison is stochastic).
        hparams = ({"tf_ratio": 0.0}
                   if name in ("dcrnn", "st-metanet") else {})
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0,
                             **hparams)
        x, y_scaled = as_inputs(model, x, y_scaled)
        loss_before = model.training_loss(x, y_scaled)
        loss_before.backward()
        for param in model.parameters():      # plain SGD, lr 1e-3
            if param.grad is not None:
                param.data -= 1e-3 * param.grad
        model.zero_grad()
        loss_after = model.training_loss(x, y_scaled)
        assert loss_after.item() <= loss_before.item() + 1e-6

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_num_parameters_positive(self, name, setup):
        ds, _, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        assert model.num_parameters() > 0


class TestStatePersistence:
    @pytest.mark.parametrize("name", TRAINABLE)
    def test_state_dict_roundtrip_preserves_predictions(self, name, setup):
        ds, x, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        clone = create_model(name, ds.num_nodes, ds.adjacency, seed=99)
        clone.load_state_dict(model.state_dict())
        x, = as_inputs(model, x)
        with no_grad():
            model.eval(), clone.eval()
            np.testing.assert_allclose(model(x).data, clone(x).data,
                                       atol=1e-12)
