"""Common interface and registry for the eight benchmark models.

Every model consumes a window ``x`` of shape ``(batch, history, nodes,
features)`` — feature 0 the z-scored traffic value, feature 1 the
normalised time of day — and produces scaled predictions of shape
``(batch, horizon, nodes)``.  The experiment runner inverse-transforms
predictions before computing metrics, matching the paper's protocol.
"""

from __future__ import annotations

from typing import Callable, Type

import numpy as np

from ..nn.losses import masked_mae
from ..nn.module import Module
from ..nn.tensor import Tensor

__all__ = ["TrafficModel", "register_model", "create_model", "model_names",
           "MODEL_REGISTRY"]

MODEL_REGISTRY: dict[str, Type["TrafficModel"]] = {}


def register_model(name: str) -> Callable[[Type["TrafficModel"]], Type["TrafficModel"]]:
    """Class decorator adding a model to the registry under ``name``."""

    def decorator(cls: Type["TrafficModel"]) -> Type["TrafficModel"]:
        if name in MODEL_REGISTRY:
            raise ValueError(f"model {name!r} already registered")
        MODEL_REGISTRY[name] = cls
        cls.name = name
        return cls

    return decorator


def model_names() -> list[str]:
    """Names of all registered models (paper models + baselines)."""
    return list(MODEL_REGISTRY)


def create_model(name: str, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0, *, dtype=np.float32,
                 **hparams) -> "TrafficModel":
    """Instantiate a registered model by name.

    ``dtype`` is the float dtype the model trains and infers in: float32,
    PyTorch's default and the paper's, or float64.  The model is built
    (in float64, so a seed draws the same initial weights either way) and
    then its parameters and float buffers are cast once, before anything
    packs them into an arena; the arena, gradients and optimizer state
    follow the parameters.  Callers cast each batch to ``model.dtype``.
    """
    key = name.lower().replace("_", "-")
    if key not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; choose from {model_names()}")
    model = MODEL_REGISTRY[key](num_nodes=num_nodes, adjacency=adjacency,
                                history=history, horizon=horizon,
                                in_features=in_features, seed=seed, **hparams)
    model._cast(dtype)
    return model


class TrafficModel(Module):
    """Base class: spatio-temporal forecaster over a fixed road graph."""

    name = "base"

    def __init__(self, num_nodes: int, adjacency: np.ndarray,
                 history: int = 12, horizon: int = 12, in_features: int = 2,
                 seed: int = 0):
        super().__init__()
        adjacency = np.asarray(adjacency, dtype=float)
        if adjacency.shape != (num_nodes, num_nodes):
            raise ValueError(
                f"adjacency shape {adjacency.shape} does not match "
                f"num_nodes={num_nodes}")
        self.num_nodes = num_nodes
        self.history = history
        self.horizon = horizon
        self.in_features = in_features
        self.seed = seed
        self.register_buffer("adjacency", adjacency)

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        """Map ``(B, T', N, F)`` inputs to ``(B, T, N)`` scaled predictions."""
        raise NotImplementedError

    def training_loss(self, x: Tensor, y_scaled: Tensor,
                      null_mask: np.ndarray | None = None) -> Tensor:
        """Loss used for optimisation (masked MAE on scaled values).

        Models with a different training objective (e.g. STGCN's
        many-to-one single-step training) override this.
        """
        prediction = self.forward(x)
        return masked_mae(prediction, y_scaled, null_value=None)

    def _validate_input(self, x: Tensor) -> None:
        if x.ndim != 4:
            raise ValueError(f"expected (B, T', N, F) input, got shape {x.shape}")
        if x.shape[1] != self.history:
            raise ValueError(
                f"history mismatch: model expects {self.history}, got {x.shape[1]}")
        if x.shape[2] != self.num_nodes:
            raise ValueError(
                f"node mismatch: model expects {self.num_nodes}, got {x.shape[2]}")
