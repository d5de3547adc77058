"""Counterfactual incident injection."""

import numpy as np
import pytest

from repro.datasets import SimulationConfig, TrafficSimulator
from repro.graph import build_network


@pytest.fixture(scope="module")
def world():
    network = build_network(8, topology="corridor", seed=4)
    config = SimulationConfig(num_days=2, incident_rate_per_day=0.0,
                              missing_rate=0.0, noise_std=0.0,
                              demand_jitter=0.0)
    return network, config


class TestInjection:
    def test_counterfactual_identical_before_incident(self, world):
        network, config = world
        base = TrafficSimulator(network, config, seed=3).run()
        injected = TrafficSimulator(network, config, seed=3).run(
            extra_incidents=[(300, 2, 0.5, 12)])
        np.testing.assert_array_equal(base.speed[:300], injected.speed[:300])

    def test_speed_drops_at_incident(self, world):
        network, config = world
        base = TrafficSimulator(network, config, seed=3).run()
        injected = TrafficSimulator(network, config, seed=3).run(
            extra_incidents=[(300, 2, 0.5, 12)])
        drop = base.speed[300:312, 2] - injected.speed[300:312, 2]
        assert drop.max() > 5.0

    def test_congestion_spills_to_upstream_neighbours(self, world):
        network, config = world
        base = TrafficSimulator(network, config, seed=3).run()
        injected = TrafficSimulator(network, config, seed=3).run(
            extra_incidents=[(300, 2, 0.7, 18)])
        upstream = [src for src, dst in zip(network.sources.tolist(),
                                            network.targets.tolist())
                    if dst == 2 and src != 2]
        if not upstream:
            pytest.skip("node 2 has no upstream feeder in this world")
        affected = np.abs(base.speed[300:330, upstream[0]]
                          - injected.speed[300:330, upstream[0]])
        assert affected.max() > 0.1

    def test_incident_recovered_after_duration(self, world):
        network, config = world
        base = TrafficSimulator(network, config, seed=3).run()
        injected = TrafficSimulator(network, config, seed=3).run(
            extra_incidents=[(100, 1, 0.5, 6)])
        # well after the incident clears, the worlds reconverge
        late = np.abs(base.speed[250:, :] - injected.speed[250:, :])
        assert late.max() < 0.5

    def test_logged(self, world):
        network, config = world
        injected = TrafficSimulator(network, config, seed=3).run(
            extra_incidents=[(300, 2, 0.5, 12)])
        assert (300, 2, 0.5, 12) in injected.incident_log

    def test_validation(self, world):
        network, config = world
        sim = TrafficSimulator(network, config, seed=3)
        with pytest.raises(ValueError, match="outside simulation"):
            sim.run(extra_incidents=[(10**6, 0, 0.5, 6)])
        with pytest.raises(ValueError, match="outside network"):
            sim.run(extra_incidents=[(10, 99, 0.5, 6)])
