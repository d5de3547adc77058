"""Road-network statistics.

Table I characterises datasets by sensor count only; network *structure*
(connectivity, path lengths, degree spread) also shapes how much a graph
model can exploit — these statistics let experiments report it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .road_network import RoadNetwork

__all__ = ["NetworkStats", "network_stats"]


@dataclass
class NetworkStats:
    """Summary statistics of a sensor network."""

    num_nodes: int
    num_edges: int
    mean_out_degree: float
    max_out_degree: int
    mean_edge_km: float
    diameter_km: float            # longest finite shortest-path distance
    strongly_connected: bool
    mean_shortest_path_km: float  # over finite pairs

    def render(self) -> str:
        return (f"{self.num_nodes} sensors, {self.num_edges} edges, "
                f"out-degree {self.mean_out_degree:.2f} "
                f"(max {self.max_out_degree}), "
                f"edge {self.mean_edge_km:.2f} km, "
                f"diameter {self.diameter_km:.1f} km, "
                f"{'strongly' if self.strongly_connected else 'weakly'} "
                f"connected")


def network_stats(network: RoadNetwork) -> NetworkStats:
    """Compute structural statistics of a road network."""
    out_degrees = np.bincount(network.sources, minlength=network.num_nodes)
    dist = network.distance_matrix()
    finite = dist[np.isfinite(dist) & (dist > 0)]
    return NetworkStats(
        num_nodes=network.num_nodes,
        num_edges=network.num_edges,
        mean_out_degree=float(np.mean(out_degrees)),
        max_out_degree=int(np.max(out_degrees)),
        mean_edge_km=(float(np.mean(network.distances))
                      if network.num_edges else 0.0),
        diameter_km=float(finite.max()) if finite.size else 0.0,
        # Strongly connected: every sensor reaches every other one.
        strongly_connected=bool(np.isfinite(dist).all()),
        mean_shortest_path_km=float(finite.mean()) if finite.size else 0.0)
