"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph import build_network, gaussian_adjacency


@pytest.fixture(scope="session", autouse=True)
def _hermetic_cache(tmp_path_factory):
    """Point the dataset cache at a per-session temp dir so tests never
    read from (or pollute) the user's ``~/.cache/repro``."""
    import os

    cache_dir = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield cache_dir
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


def digraph(network):
    """The networkx ``DiGraph`` of a network's edge arrays, added in array
    order: the oracle the graph tests check :class:`RoadNetwork` against."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(network.num_nodes))
    for src, dst, km in zip(network.sources.tolist(),
                            network.targets.tolist(),
                            network.distances.tolist()):
        graph.add_edge(src, dst, distance=km)
    return graph


def numerical_gradient(func, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``func()`` w.r.t. ``array``.

    ``func`` must read ``array`` by reference (it is perturbed in place).
    """
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    for _ in iterator:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        plus = func()
        array[index] = original - eps
        minus = func()
        array[index] = original
        grad[index] = (plus - minus) / (2 * eps)
    return grad


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_network():
    return build_network(6, topology="corridor", seed=3)


@pytest.fixture(scope="session")
def small_adjacency(small_network):
    return gaussian_adjacency(small_network)


@pytest.fixture(scope="session")
def ci_dataset():
    """A tiny speed dataset shared across tests (expensive to build)."""
    return load_dataset("metr-la", scale="ci")


@pytest.fixture(scope="session")
def ci_flow_dataset():
    return load_dataset("pemsd8", scale="ci")
