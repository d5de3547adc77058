"""Training checkpoints: persist model + optimizer state, resume training.

Paper-scale runs (hundreds of epochs on 200+ sensors) need restartability;
a checkpoint bundles the model state dict, the optimizer's mutable
buffers, and arbitrary metadata (epoch counter, best validation score) in
one ``.npz`` archive.

Optimizer state is Adam's: the learning rate, the step count, and the
two moment buffers ``m``/``v``, each one flat array, accompanied by a
JSON ``spec`` recording every parameter's name/shape/offset inside them
— the same layout :class:`repro.nn.arena.ParameterArena` uses in memory.

The metadata blob also records the model's parameter dtype (under
:data:`DTYPE_KEY`), and a checkpoint only loads into a model of that
dtype: assigning float64 values into float32 parameters would round them
without a word (and the reverse would widen them), so a resumed run would
no longer equal the uninterrupted one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .module import Module
from .optim.adam import Adam

__all__ = ["save_checkpoint", "load_checkpoint", "optimizer_state",
           "load_optimizer_state"]

#: Metadata key holding the parameter dtype; checkpoints without it were
#: written by the float64-only engine.
DTYPE_KEY = "param_dtype"


def optimizer_state(optimizer: Adam) -> dict[str, np.ndarray]:
    """Extract an optimizer's mutable state as a flat dict.

    ``lr`` and ``step_count``, copies of the flat moment buffers ``m`` and
    ``v``, and a JSON ``spec`` blob giving each parameter's
    name/shape/offset inside them.
    """
    spec = {"class": type(optimizer).__name__,
            "params": [{"name": s.name, "shape": list(s.shape),
                        "offset": s.offset} for s in optimizer.arena.specs]}
    return {"lr": np.asarray(optimizer.lr),
            "spec": np.frombuffer(json.dumps(spec).encode(), dtype=np.uint8),
            "step_count": np.asarray(optimizer._step_count),
            "m": optimizer._m_flat.copy(),
            "v": optimizer._v_flat.copy()}


def load_optimizer_state(optimizer: Adam,
                         state: dict[str, np.ndarray]) -> None:
    """Restore state extracted by :func:`optimizer_state` (in place)."""
    optimizer.lr = float(state["lr"])
    spec = json.loads(bytes(np.asarray(state["spec"])).decode())
    params = spec.get("params", [])
    specs = optimizer.arena.specs
    if len(params) != len(specs):
        raise ValueError(
            f"optimizer state holds {len(params)} parameters, the "
            f"optimizer has {len(specs)}")
    for entry, current in zip(params, specs):
        if tuple(entry["shape"]) != current.shape:
            raise ValueError(
                f"shape mismatch for {entry['name']!r}: saved "
                f"{tuple(entry['shape'])} vs current {current.shape}")
    optimizer._step_count = int(state["step_count"])
    for key, buffer in (("m", optimizer._m_flat), ("v", optimizer._v_flat)):
        if key not in state:
            raise KeyError(f"optimizer state is missing buffer {key!r}")
        buffer[...] = np.asarray(state[key]).ravel()


def save_checkpoint(path: str | Path, model: Module,
                    optimizer: Adam | None = None,
                    metadata: dict | None = None) -> None:
    """Write model (+ optional optimizer) state and JSON metadata.

    The metadata gains the model's parameter dtype under
    :data:`DTYPE_KEY`.  Announces the save as a ``checkpoint_saved``
    telemetry event on the ambient :class:`repro.obs.EventBus`.
    """
    from ..obs.events import CheckpointSaved, get_bus

    payload: dict[str, np.ndarray] = {}
    for key, value in model.state_dict().items():
        payload[f"model/{key}"] = value
    if optimizer is not None:
        for key, value in optimizer_state(optimizer).items():
            payload[f"optim/{key}"] = value
    meta_blob = json.dumps({**(metadata or {}),
                            DTYPE_KEY: model.dtype.name}).encode()
    payload["metadata"] = np.frombuffer(meta_blob, dtype=np.uint8)
    np.savez(path, **payload)
    get_bus().emit(CheckpointSaved(path=str(path), num_arrays=len(payload)))


def load_checkpoint(path: str | Path, model: Module,
                    optimizer: Adam | None = None) -> dict:
    """Restore model (+ optional optimizer); returns the metadata dict.

    Raises ``ValueError`` naming both dtypes when the checkpoint's
    parameter dtype is not the model's.
    """
    with np.load(path) as archive:
        metadata = json.loads(bytes(archive["metadata"]).decode())
        saved = metadata.pop(DTYPE_KEY, "float64")
        if saved != model.dtype.name:
            raise ValueError(
                f"checkpoint {str(path)!r} holds {saved} parameters, the "
                f"model is {model.dtype.name}; build the model with "
                f"dtype={saved} to load it")
        model_state = {key[len("model/"):]: archive[key]
                       for key in archive.files if key.startswith("model/")}
        model.load_state_dict(model_state)
        if optimizer is not None:
            optim_state = {key[len("optim/"):]: archive[key]
                           for key in archive.files if key.startswith("optim/")}
            if not optim_state:
                raise KeyError("checkpoint contains no optimizer state")
            load_optimizer_state(optimizer, optim_state)
    return metadata
