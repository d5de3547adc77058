"""Network statistics."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import build_network, network_stats

from ..conftest import digraph


class TestNetworkStats:
    def test_basic_counts(self, small_network):
        stats = network_stats(small_network)
        assert stats.num_nodes == small_network.num_nodes
        assert stats.num_edges == digraph(small_network).number_of_edges()

    def test_degree_statistics(self, small_network):
        stats = network_stats(small_network)
        degrees = [d for _, d in digraph(small_network).out_degree()]
        assert stats.mean_out_degree == pytest.approx(np.mean(degrees))
        assert stats.max_out_degree == max(degrees)

    def test_distances_positive(self, small_network):
        stats = network_stats(small_network)
        assert stats.mean_edge_km > 0
        assert stats.diameter_km >= stats.mean_shortest_path_km > 0

    @pytest.mark.parametrize("topology", ["corridor", "grid", "radial"])
    def test_strongly_connected_matches_networkx(self, topology):
        for seed in range(4):
            network = build_network(9, topology, seed=seed)
            assert (network_stats(network).strongly_connected
                    == nx.is_strongly_connected(digraph(network)))

    def test_grid_denser_than_corridor(self):
        corridor = network_stats(build_network(16, "corridor", seed=0))
        grid = network_stats(build_network(16, "grid", seed=0))
        assert grid.num_edges > corridor.num_edges

    def test_render(self, small_network):
        text = network_stats(small_network).render()
        assert "sensors" in text
        assert "km" in text
