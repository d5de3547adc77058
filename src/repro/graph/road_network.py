"""Synthetic road-network topologies.

The PeMS datasets are loop-detector networks on California freeways.  Since
the Caltrans feeds are unavailable offline, we synthesise road networks with
the same structural character: long directed corridors (freeways), grid
interchanges (urban meshes), and radial hubs (downtown funnels).  Sensors
sit on edges of the physical road; distances between sensors drive the
Gaussian-kernel adjacency exactly as in the paper (Sec. IV-B).

A network is plain edge arrays, in the order a ``DiGraph`` lists its
edges: grouped by source, first-added order within a source.  The graph
tests check that order, the shortest distances and the weak-connectivity
repair against a ``DiGraph`` oracle, bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["RoadNetwork", "build_network"]

#: Directed edges ``(source, target) -> distance (km)`` while a topology is
#: built.  A dict keeps a repeated edge at its first position and takes its
#: later distance, as ``DiGraph.add_edge`` does.
Edges = dict[tuple[int, int], float]


@dataclass
class RoadNetwork:
    """A sensor network over a road system.

    Attributes
    ----------
    sources, targets:
        ``(E,)`` int64 sensor ids ``0..N-1`` of each directed edge.  Edges
        are grouped by source in ascending order, and a source's edges keep
        the order in which they were first added.
    distances:
        ``(E,)`` driving distance (km) along each edge.
    free_flow_speed:
        ``(N,)`` per-sensor free-flow speed (mph), heterogeneous across the
        network like real freeway segments.
    capacity:
        ``(N,)`` per-sensor capacity (vehicles / 5 min) for the fundamental
        diagram used by flow datasets.
    """

    sources: np.ndarray
    targets: np.ndarray
    distances: np.ndarray
    free_flow_speed: np.ndarray
    capacity: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.free_flow_speed)

    @property
    def num_edges(self) -> int:
        return len(self.sources)

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest driving distance (km); inf when unreachable.

        One Dijkstra per source.  A distance is the least ``d(u) + w`` sum
        over the edges into a sensor, so it does not depend on the order
        the search settles ties in.
        """
        n = self.num_nodes
        successors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for src, dst, km in zip(self.sources.tolist(), self.targets.tolist(),
                                self.distances.tolist()):
            successors[src].append((dst, km))
        dist = np.empty((n, n))
        for source in range(n):
            dist[source] = _dijkstra(successors, source)
        return dist

    def downstream_hops(self) -> dict[int, list[int]]:
        """Successors of every node — used by congestion-wave propagation."""
        hops: dict[int, list[int]] = {n: [] for n in range(self.num_nodes)}
        for src, dst in zip(self.sources.tolist(), self.targets.tolist()):
            hops[src].append(dst)
        return hops


def _dijkstra(successors: list[list[tuple[int, float]]],
              source: int) -> list[float]:
    """Shortest distances from ``source`` to every node (inf if unreached)."""
    best = [np.inf] * len(successors)
    best[source] = 0.0
    settled = [False] * len(successors)
    fringe = [(0.0, source)]
    while fringe:
        d, node = heapq.heappop(fringe)
        if settled[node]:
            continue
        settled[node] = True
        for nxt, km in successors[node]:
            through = d + km
            if through < best[nxt]:
                best[nxt] = through
                heapq.heappush(fringe, (through, nxt))
    return best


def _corridor(num_nodes: int, rng: np.random.Generator, spacing_km: float) -> Edges:
    """A two-direction freeway corridor: nodes alternate directions."""
    edges: Edges = {}
    half = num_nodes // 2
    for i in range(half - 1):  # eastbound chain
        edges[i, i + 1] = spacing_km * (0.7 + 0.6 * rng.random())
    for i in range(half, num_nodes - 1):  # westbound chain
        edges[i + 1, i] = spacing_km * (0.7 + 0.6 * rng.random())
    # on/off ramps connecting the two directions sporadically
    for i in range(0, half - 1, max(2, half // 4)):
        j = min(num_nodes - 1, half + i)
        edges[i, j] = spacing_km * 1.5
        edges[j, i] = spacing_km * 1.5
    return edges


def _grid(num_nodes: int, rng: np.random.Generator, spacing_km: float) -> Edges:
    """An urban mesh: approximately square grid with directed arterials."""
    side = max(2, int(np.ceil(np.sqrt(num_nodes))))
    edges: Edges = {}

    def nid(r: int, c: int) -> int:
        return r * side + c

    for r in range(side):
        for c in range(side):
            here = nid(r, c)
            if here >= num_nodes:
                continue
            for dr, dc in ((0, 1), (1, 0)):
                nr, nc = r + dr, c + dc
                neighbor = nid(nr, nc)
                if nr < side and nc < side and neighbor < num_nodes:
                    d = spacing_km * (0.7 + 0.6 * rng.random())
                    edges[here, neighbor] = d
                    # Most grid streets are two-way; some are one-way pairs.
                    if rng.random() < 0.8:
                        edges[neighbor, here] = d
    return edges


def _radial(num_nodes: int, rng: np.random.Generator, spacing_km: float) -> Edges:
    """Radial hub: spokes feeding a centre, plus a ring road."""
    edges: Edges = {}
    num_spokes = max(3, num_nodes // 6)
    per_spoke = max(1, (num_nodes - 1) // num_spokes)
    node = 1
    ring: list[int] = []
    for _ in range(num_spokes):
        previous = 0  # hub
        for depth in range(per_spoke):
            if node >= num_nodes:
                break
            d = spacing_km * (0.7 + 0.6 * rng.random())
            edges[node, previous] = d   # inbound
            edges[previous, node] = d   # outbound
            if depth == per_spoke - 1:
                ring.append(node)
            previous = node
            node += 1
    for a, b in zip(ring, ring[1:] + ring[:1]):
        if a != b:
            d = spacing_km * (1.0 + rng.random())
            edges[a, b] = d
            edges[b, a] = d
    return edges


_TOPOLOGIES = {"corridor": _corridor, "grid": _grid, "radial": _radial}


def _by_source(edges: Edges) -> list[tuple[int, int]]:
    """Edge keys grouped by source, first-added order within a source."""
    return sorted(edges, key=lambda edge: edge[0])


def _weak_components(num_nodes: int, edges: Edges) -> list[set[int]]:
    """Weakly connected components, in order of their lowest node.

    Each component is a set filled in breadth-first discovery order over
    the undirected neighbours, so iterating it yields the same first node
    as the sets ``connected_components`` yields for the ``DiGraph`` oracle.
    """
    neighbours: list[dict[int, None]] = [{} for _ in range(num_nodes)]
    for src, dst in _by_source(edges):
        neighbours[src][dst] = None
        neighbours[dst][src] = None
    components: list[set[int]] = []
    placed: set[int] = set()
    for start in range(num_nodes):
        if start in placed:
            continue
        component = {start}
        level = [start]
        while level:
            following = []
            for node in level:
                for other in neighbours[node]:
                    if other not in component:
                        component.add(other)
                        following.append(other)
            level = following
        placed.update(component)
        components.append(component)
    return components


def build_network(num_nodes: int, topology: str = "corridor", seed: int = 0,
                  spacing_km: float = 1.2,
                  free_flow_mph: tuple[float, float] = (55.0, 70.0),
                  capacity_veh: tuple[float, float] = (150.0, 450.0)) -> RoadNetwork:
    """Construct a synthetic sensor network.

    Parameters
    ----------
    num_nodes:
        Number of sensors (the paper's datasets range 170–883; the
        ``ci`` and ``bench`` presets use 8–58).
    topology:
        ``corridor`` (freeway, METR-LA-like), ``grid`` (urban mesh,
        PeMS-BAY-like) or ``radial`` (hub-and-spoke).
    seed:
        Seeds both structure randomness and per-sensor attributes.
    """
    if num_nodes < 2:
        raise ValueError(f"need at least 2 sensors, got {num_nodes}")
    if topology not in _TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r}; choose from {sorted(_TOPOLOGIES)}")
    rng = np.random.default_rng(seed)
    edges = _TOPOLOGIES[topology](num_nodes, rng, spacing_km)

    # Ensure weak connectivity so every sensor correlates with some neighbour.
    components = _weak_components(num_nodes, edges)
    for comp_a, comp_b in zip(components, components[1:]):
        a = next(iter(comp_a))
        b = next(iter(comp_b))
        edges[a, b] = spacing_km * 2.0
        edges[b, a] = spacing_km * 2.0

    # This draw once seeded a layout of sensor positions that nothing read;
    # it stays so the speeds and capacities below keep their values.
    rng.integers(1 << 31)
    free_flow = rng.uniform(*free_flow_mph, size=num_nodes)
    capacity = rng.uniform(*capacity_veh, size=num_nodes)
    keys = _by_source(edges)
    return RoadNetwork(
        sources=np.array([src for src, _ in keys], dtype=np.int64),
        targets=np.array([dst for _, dst in keys], dtype=np.int64),
        distances=np.array([edges[key] for key in keys]),
        free_flow_speed=free_flow, capacity=capacity)
