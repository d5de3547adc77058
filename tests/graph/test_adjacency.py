"""Adjacency construction: Gaussian kernel and row normalisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import build_network, gaussian_adjacency, row_normalize


class TestGaussianAdjacency:
    def test_diagonal_is_one(self, small_network):
        adj = gaussian_adjacency(small_network)
        np.testing.assert_array_equal(np.diag(adj), 1.0)

    def test_weights_in_unit_interval(self, small_network):
        adj = gaussian_adjacency(small_network)
        assert np.all(adj >= 0.0)
        assert np.all(adj <= 1.0)

    def test_threshold_sparsifies(self, small_network):
        dense = gaussian_adjacency(small_network, threshold=0.0)
        sparse = gaussian_adjacency(small_network, threshold=0.5)
        assert (sparse > 0).sum() <= (dense > 0).sum()

    def test_small_entries_zeroed(self, small_network):
        adj = gaussian_adjacency(small_network, threshold=0.3)
        off_diag = adj[~np.eye(len(adj), dtype=bool)]
        nonzero = off_diag[off_diag > 0]
        assert np.all(nonzero >= 0.3)

    def test_closer_nodes_weigh_more(self):
        network = build_network(10, topology="corridor", seed=0)
        adj = gaussian_adjacency(network, threshold=0.0)
        dist = network.distance_matrix()
        # pick a node with at least two reachable targets at different distance
        for i in range(10):
            reachable = np.where(np.isfinite(dist[i]) & (dist[i] > 0))[0]
            if len(reachable) >= 2:
                near, far = sorted(reachable, key=lambda j: dist[i, j])[0], \
                    sorted(reachable, key=lambda j: dist[i, j])[-1]
                if dist[i, near] < dist[i, far]:
                    assert adj[i, near] >= adj[i, far]
                    return
        pytest.skip("no node with two reachable targets")

    def test_max_hops_cut(self, small_network):
        adj_cut = gaussian_adjacency(small_network, threshold=0.0,
                                     max_hops_km=0.5)
        dist = small_network.distance_matrix()
        assert np.all(adj_cut[dist > 0.5] == 0.0)


class TestRowNormalize:
    def test_rows_sum_to_one(self, small_adjacency):
        normalized = row_normalize(small_adjacency)
        sums = normalized.sum(axis=1)
        np.testing.assert_allclose(sums[small_adjacency.sum(axis=1) > 0], 1.0)

    def test_zero_rows_stay_zero(self):
        adj = np.array([[0.0, 0.0], [1.0, 1.0]])
        normalized = row_normalize(adj)
        np.testing.assert_array_equal(normalized[0], [0.0, 0.0])
        np.testing.assert_allclose(normalized[1], [0.5, 0.5])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_rows_sum_to_one_or_zero(self, seed):
        adj = np.abs(np.random.default_rng(seed).normal(size=(5, 5)))
        adj[adj < 0.5] = 0.0
        sums = row_normalize(adj).sum(axis=1)
        for value in sums:
            assert value == pytest.approx(1.0) or value == pytest.approx(0.0)
