"""Road-network and graph-operator substrate."""

from .adjacency import gaussian_adjacency, row_normalize
from .laplacian import (chebyshev_polynomials, dual_random_walk,
                        normalized_laplacian, random_walk_matrix,
                        reverse_random_walk_matrix, scaled_laplacian)
from .metrics import NetworkStats, network_stats
from .road_network import RoadNetwork, build_network

__all__ = [
    "RoadNetwork", "build_network", "NetworkStats", "network_stats",
    "gaussian_adjacency", "row_normalize",
    "normalized_laplacian", "scaled_laplacian", "chebyshev_polynomials",
    "random_walk_matrix", "reverse_random_walk_matrix", "dual_random_walk",
]
