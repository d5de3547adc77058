"""Dataset persistence: save/load simulated worlds as ``.npz`` archives.

Paper-scale simulations (hundreds of sensors, months of 5-minute steps)
take a while to generate; persisting them lets the benchmark matrix reuse
one world across model runs and lets users share exact datasets.  The
content-addressed dataset cache (:mod:`repro.datasets.cache`) round-trips
every built world through this module.

Archives are written stored (``ZIP_STORED``, no deflate): simulated
float64 deflates by only about 13%, while deflate made writes 30-40x and
reads 5-6x slower (``docs/data.md`` §3).  The zip CRC-32 still checks
every member on read.  ``np.load`` reads stored and deflated members
alike, so archives written compressed load unchanged.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..graph.road_network import RoadNetwork
from .catalog import DatasetSpec, LoadedDataset
from .generator import SimulationResult
from .windows import WindowConfig, make_windows

__all__ = ["save_dataset"]


def save_dataset(dataset: LoadedDataset, path: str | Path, *,
                 cache_key: str | None = None) -> None:
    """Persist a loaded dataset (simulation + graph) to one uncompressed
    ``.npz`` file.

    The members are stored, not deflated: the simulated series barely
    compress, and zlib dominated both the write and the read.  The
    supervised windows are *not* saved — rebuilding them is a few
    zero-copy sliding views under the lazy pipeline, while saving them
    would multiply the file size ~24x.  ``cache_key`` is recorded in the
    archive metadata so :class:`~repro.datasets.DatasetCache` can check
    that an entry holds the world it was asked for.
    """
    path = Path(path)
    network = dataset.network
    edges = np.column_stack([network.sources, network.targets,
                             network.distances])
    sim = dataset.simulation
    meta = {
        "spec": asdict(dataset.spec),
        "scale": dataset.scale,
        "window": asdict(dataset.supervised.config),
        "incident_log": [list(entry) for entry in sim.incident_log],
    }
    if cache_key is not None:
        meta["cache_key"] = cache_key
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        edges=edges,
        free_flow_speed=network.free_flow_speed,
        capacity=network.capacity,
        adjacency=dataset.adjacency,
        density=sim.density,
        speed=sim.speed,
        flow=sim.flow,
        timestamps=sim.timestamps,
        time_of_day=sim.time_of_day,
        day_of_week=sim.day_of_week,
        missing_mask=sim.missing_mask,
    )


def load_archive(path: str | Path) -> tuple[dict, LoadedDataset]:
    """The JSON metadata and the rebuilt dataset of an archive written by
    :func:`save_dataset`, from one read."""
    path = Path(path)
    with np.load(path) as payload:
        meta = json.loads(bytes(payload["meta"]).decode())
        edges = payload["edges"]
        free_flow = payload["free_flow_speed"]
        capacity = payload["capacity"]
        adjacency = payload["adjacency"]
        sim = SimulationResult(
            density=payload["density"],
            speed=payload["speed"],
            flow=payload["flow"],
            timestamps=payload["timestamps"],
            time_of_day=payload["time_of_day"],
            day_of_week=payload["day_of_week"],
            missing_mask=payload["missing_mask"],
            incident_log=[tuple(entry) for entry in meta["incident_log"]])

    network = RoadNetwork(sources=edges[:, 0].astype(np.int64),
                          targets=edges[:, 1].astype(np.int64),
                          distances=edges[:, 2].copy(),
                          free_flow_speed=free_flow, capacity=capacity)

    spec = DatasetSpec(**meta["spec"])
    window = WindowConfig(**meta["window"])
    values = sim.speed if spec.task == "speed" else sim.flow
    supervised = make_windows(values, sim.time_of_day, window,
                              day_of_week=sim.day_of_week)

    return meta, LoadedDataset(spec=spec, scale=meta["scale"],
                               network=network, adjacency=adjacency,
                               simulation=sim, supervised=supervised)
