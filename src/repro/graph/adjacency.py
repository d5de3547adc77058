"""Weighted adjacency construction (paper Sec. IV-B).

Edge weights follow the Gaussian kernel used by STGCN / DCRNN /
Graph-WaveNet: ``W_ij = exp(-dist_ij^2 / sigma^2)`` where ``sigma`` is the
standard deviation of finite pairwise distances, with entries below a
sparsity threshold zeroed.
"""

from __future__ import annotations

import numpy as np

from .road_network import RoadNetwork

__all__ = ["gaussian_adjacency", "row_normalize"]


def gaussian_adjacency(network: RoadNetwork, threshold: float = 0.1,
                       max_hops_km: float | None = None) -> np.ndarray:
    """Gaussian-kernel weighted adjacency from driving distances.

    Parameters
    ----------
    threshold:
        Weights below this value are zeroed (the k=0.1 sparsity threshold of
        DCRNN).
    max_hops_km:
        Optional hard cut on distance before applying the kernel.
    """
    dist = network.distance_matrix()
    finite = dist[np.isfinite(dist) & (dist > 0)]
    if finite.size == 0:
        raise ValueError("network has no finite positive distances")
    sigma = finite.std()
    if sigma == 0:
        sigma = finite.mean() or 1.0
    with np.errstate(over="ignore"):
        weights = np.exp(-np.square(dist / sigma))
    weights[~np.isfinite(dist)] = 0.0
    if max_hops_km is not None:
        weights[dist > max_hops_km] = 0.0
    weights[weights < threshold] = 0.0
    np.fill_diagonal(weights, 1.0)
    return weights


def row_normalize(adjacency: np.ndarray) -> np.ndarray:
    """Random-walk normalisation ``D^-1 A`` (rows sum to one where nonzero)."""
    degree = adjacency.sum(axis=1, keepdims=True)
    safe = np.where(degree > 0, degree, 1.0)
    return adjacency / safe
