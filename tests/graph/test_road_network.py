"""Road-network construction: topologies, connectivity, attributes, and
the edge arrays against networkx as an oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.datasets.catalog import DATASETS
from repro.graph import build_network
from repro.graph.road_network import _weak_components

from ..conftest import digraph

TOPOLOGIES = ["corridor", "grid", "radial"]


class TestBuildNetwork:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_topologies_build(self, topology):
        network = build_network(12, topology=topology, seed=0)
        assert network.num_nodes == 12
        assert network.num_edges > 0
        assert digraph(network).number_of_edges() == network.num_edges

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_weakly_connected(self, topology):
        network = build_network(15, topology=topology, seed=1)
        assert nx.is_connected(digraph(network).to_undirected())

    def test_deterministic_by_seed(self):
        a = build_network(10, seed=42)
        b = build_network(10, seed=42)
        assert set(digraph(a).edges) == set(digraph(b).edges)
        np.testing.assert_array_equal(a.sources, b.sources)
        np.testing.assert_array_equal(a.targets, b.targets)
        np.testing.assert_array_equal(a.distances, b.distances)
        np.testing.assert_array_equal(a.free_flow_speed, b.free_flow_speed)

    def test_different_seeds_differ(self):
        a = build_network(10, seed=1)
        b = build_network(10, seed=2)
        assert not np.allclose(a.free_flow_speed, b.free_flow_speed)

    def test_attribute_shapes_and_ranges(self):
        network = build_network(9, seed=0)
        assert network.free_flow_speed.shape == (9,)
        assert network.capacity.shape == (9,)
        assert np.all(network.free_flow_speed >= 55.0)
        assert np.all(network.free_flow_speed <= 70.0)
        assert np.all(network.capacity > 0)

    def test_edge_arrays_are_parallel(self):
        network = build_network(10, topology="grid", seed=0)
        assert network.sources.dtype == network.targets.dtype == np.int64
        assert (network.sources.shape == network.targets.shape
                == network.distances.shape == (network.num_edges,))

    def test_repeated_edge_keeps_position_and_takes_later_distance(self):
        """A three-sensor radial hub has a ring of two, which adds each
        ring edge twice: as with ``DiGraph.add_edge``, the edge keeps its
        first position and takes the second draw's distance."""
        draws = np.random.default_rng(5).random(4)
        network = build_network(3, "radial", seed=5, spacing_km=1.2)
        edges = list(zip(network.sources.tolist(), network.targets.tolist()))
        assert edges == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        km = dict(zip(edges, network.distances.tolist()))
        assert km[1, 2] == km[2, 1] == 1.2 * (1.0 + draws[3])

    def test_edges_have_positive_distances(self):
        network = build_network(10, topology="grid", seed=0)
        for _, _, km in digraph(network).edges(data="distance"):
            assert km > 0
        assert np.all(network.distances > 0)

    def test_too_few_nodes_raises(self):
        with pytest.raises(ValueError):
            build_network(1)

    def test_unknown_topology_raises(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build_network(10, topology="mobius")


class TestDistanceMatrix:
    def test_diagonal_zero(self, small_network):
        dist = small_network.distance_matrix()
        np.testing.assert_array_equal(np.diag(dist), 0.0)

    def test_triangle_inequality_on_finite(self, small_network):
        dist = small_network.distance_matrix()
        n = small_network.num_nodes
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if all(np.isfinite([dist[i, j], dist[i, k], dist[k, j]])):
                        assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-9

    def test_direct_edge_bounds_shortest_path(self, small_network):
        dist = small_network.distance_matrix()
        for src, dst, km in digraph(small_network).edges(data="distance"):
            assert dist[src, dst] <= km + 1e-9

    def test_downstream_hops_matches_graph(self, small_network):
        hops = small_network.downstream_hops()
        graph = digraph(small_network)
        assert list(hops) == list(graph.nodes)
        for node, successors in hops.items():
            assert set(successors) == set(graph.successors(node))


def oracle_distances(network) -> np.ndarray:
    """All-pairs shortest distances from networkx's Dijkstra."""
    n = network.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    lengths = nx.all_pairs_dijkstra_path_length(digraph(network),
                                                weight="distance")
    for src, targets in lengths:
        for dst, km in targets.items():
            dist[src, dst] = km
    return dist


def assert_matches_networkx(network):
    graph = digraph(network)
    # networkx lists edges grouped by source in first-added order, so the
    # arrays match it only when they are already in that order.
    assert list(graph.edges(data="distance")) == list(zip(
        network.sources.tolist(), network.targets.tolist(),
        network.distances.tolist()))
    hops = network.downstream_hops()
    for node in graph.nodes:
        assert hops[node] == list(graph.successors(node))
    assert nx.is_weakly_connected(graph)
    assert np.array_equal(network.distance_matrix(), oracle_distances(network))


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_nodes", [2, 3, 5, 8, 9, 17, 58, 207])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_edges_successors_and_distances(self, topology, num_nodes, seed):
        assert_matches_networkx(build_network(num_nodes, topology, seed=seed))

    def test_paper_scale_pemsd7_corridor(self):
        spec = DATASETS["pemsd7"]
        network = build_network(spec.paper_nodes, topology=spec.topology,
                                seed=spec.sim_seed)
        assert network.num_nodes == 883
        assert_matches_networkx(network)

    @pytest.mark.parametrize("seed", range(6))
    def test_weak_components_match_networkx(self, seed):
        """Same components in the same order, and the same first member:
        the repair edge joins the sensors networkx's sets would yield.
        Node ids past a set's table size make that pick differ from the
        component minimum, so the sizes reach well beyond 8."""
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(10, 80))
        edges = {}
        for _ in range(int(rng.integers(1, num_nodes))):
            src, dst = rng.integers(num_nodes, size=2).tolist()
            if src != dst:
                edges[src, dst] = 1.0
        graph = nx.DiGraph()
        graph.add_nodes_from(range(num_nodes))
        graph.add_edges_from(edges)
        expected = list(nx.connected_components(graph.to_undirected()))
        components = _weak_components(num_nodes, edges)
        assert components == expected
        assert ([next(iter(c)) for c in components]
                == [next(iter(c)) for c in expected])
