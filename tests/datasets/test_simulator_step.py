"""The simulator's neighbour-gather step against the dense step it replaced.

``ReferenceSimulator`` is the simulator as it was before its time loop
became a neighbour gather: ``run``, ``_recurring_demand`` and
``_spillback_operator`` are copied verbatim.  It is the oracle: the
current simulator must draw the same random numbers in the same order, so
missing masks, incident logs and the generator's next draw are equal, and
its density, speed and flow may differ from the oracle's by rounding only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SimulationConfig, SimulationResult, TrafficSimulator
from repro.datasets.fundamental import flow_from_density, speed_from_density
from repro.datasets.generator import STEPS_PER_DAY, STEPS_PER_HOUR
from repro.graph import RoadNetwork, build_network

RTOL = 1e-12
EPS = np.finfo(np.float64).eps


class ReferenceSimulator(TrafficSimulator):
    """The dense-operator simulator (oracle)."""

    def run(self, extra_incidents: list[tuple[int, int, float, int]] | None = None
            ) -> SimulationResult:
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        n = self.network.num_nodes
        total_steps = cfg.num_days * STEPS_PER_DAY

        demand = self._recurring_demand(rng, total_steps)          # (T, N)
        incident_forcing, incident_log = self._incidents(rng, total_steps)
        for step, node, magnitude, duration in (extra_incidents or []):
            if not 0 <= step < total_steps:
                raise ValueError(f"incident step {step} outside simulation")
            if not 0 <= node < n:
                raise ValueError(f"incident node {node} outside network")
            stop = min(total_steps, step + duration)
            steps = np.arange(stop - step)
            incident_forcing[step:stop, node] += (
                magnitude * np.exp(-steps / max(1.0, duration / 2.5)))
            incident_log.append((step, node, float(magnitude), int(duration)))

        # Upstream-neighbour averaging operator: congestion at a sensor is
        # pushed to the sensors feeding into it (queue spillback).
        spillback = self._spillback_operator()

        # Convex spatio-temporal filter: with feed = 1 - decay - coupling the
        # fixed point of the recursion equals the demand level, so recurring
        # density tracks the daily profile while congestion still spills
        # upstream through the coupling term.
        feed = 1.0 - cfg.decay - cfg.coupling
        if feed <= 0:
            raise ValueError(
                f"decay ({cfg.decay}) + coupling ({cfg.coupling}) must be < 1 "
                "for stable congestion dynamics")
        # One draw for every step's shocks: the same stream, in the same
        # order, as a draw per step, and the generator ends in the same
        # state for the ``missing`` draws below.  Each row of the buffer
        # is overwritten by that step's density once its shock is read.
        # maximum/minimum clip as np.clip does, without its per-call
        # Python wrapper.
        density = rng.normal(0.0, cfg.noise_std, size=(total_steps, n))
        state = demand[0].copy()
        noise = np.zeros(n)
        for t in range(total_steps):
            noise = cfg.noise_ar * noise + density[t]
            neighbour_pressure = spillback @ state
            state = (cfg.decay * state
                     + cfg.coupling * neighbour_pressure
                     + feed * demand[t]
                     + incident_forcing[t])
            state = np.minimum(np.maximum(state, 0.0), 0.95)
            np.minimum(np.maximum(state + noise, 0.0), 0.95, out=density[t])

        speed = speed_from_density(density, self.network.free_flow_speed[None, :])
        flow = flow_from_density(density, self.network.capacity[None, :])

        missing = rng.random((total_steps, n)) < cfg.missing_rate
        if cfg.outage_rate_per_day > 0:
            missing |= self._outages(rng, total_steps)
        speed = np.where(missing, 0.0, speed)
        flow = np.where(missing, 0.0, flow)

        timestamps = np.arange(total_steps) * 5.0
        step_in_day = np.arange(total_steps) % STEPS_PER_DAY
        time_of_day = step_in_day / STEPS_PER_DAY
        day_of_week = ((np.arange(total_steps) // STEPS_PER_DAY)
                       + cfg.start_weekday) % 7

        return SimulationResult(
            density=density, speed=speed, flow=flow, timestamps=timestamps,
            time_of_day=time_of_day, day_of_week=day_of_week,
            missing_mask=missing, incident_log=incident_log)

    def _recurring_demand(self, rng: np.random.Generator,
                          total_steps: int) -> np.ndarray:
        """Daily double-peak demand per sensor, damped on weekends."""
        cfg = self.config
        n = self.network.num_nodes
        hours = (np.arange(total_steps) % STEPS_PER_DAY) / STEPS_PER_HOUR

        # Per-sensor commute orientation: 0 = AM-heavy, 1 = PM-heavy.
        orientation = rng.random(n)
        am_weight = 1.2 - 0.8 * orientation
        pm_weight = 0.4 + 0.8 * orientation
        am_center = rng.normal(8.0, 0.4, size=n)
        pm_center = rng.normal(17.5, 0.4, size=n)
        width = rng.uniform(1.0, 1.8, size=n)
        base = rng.uniform(0.04, 0.12, size=n)   # light overnight density

        am_peak = np.exp(-((hours[:, None] - am_center[None, :]) / width) ** 2)
        pm_peak = np.exp(-((hours[:, None] - pm_center[None, :]) / width) ** 2)
        midday = 0.25 * np.exp(-((hours[:, None] - 13.0) / 3.0) ** 2)

        profile = cfg.rush_intensity * (am_weight * am_peak
                                        + pm_weight * pm_peak + midday)
        demand = base[None, :] + profile

        day_index = np.arange(total_steps) // STEPS_PER_DAY
        weekday = (day_index + cfg.start_weekday) % 7
        weekend = (weekday >= 5).astype(float)
        day_scale = 1.0 - (1.0 - cfg.weekend_factor) * weekend
        day_jitter = rng.normal(1.0, cfg.demand_jitter, size=day_index.max() + 1)
        if cfg.bad_weather_probability > 0:
            bad_day = (rng.random(day_index.max() + 1)
                       < cfg.bad_weather_probability)
            day_jitter = np.where(
                bad_day, day_jitter * cfg.bad_weather_demand_factor,
                day_jitter)
        demand = demand * (day_scale * day_jitter[day_index])[:, None]
        return np.clip(demand, 0.0, 0.9)

    def _spillback_operator(self) -> np.ndarray:
        """Row-normalised matrix mapping node densities to the congestion
        pressure felt by each node from its *downstream* successors."""
        n = self.network.num_nodes
        op = np.zeros((n, n))
        for node, successors in self.network.downstream_hops().items():
            for succ in successors:
                op[node, succ] = 1.0
        row_sum = op.sum(axis=1, keepdims=True)
        return op / np.where(row_sum > 0, row_sum, 1.0)


#: Outages, bad weather and extra incidents all on; three days with a
#: Saturday, so the weekend damping is exercised too.  The three step
#: weights differ from each other and from their defaults.
CONFIG = SimulationConfig(num_days=3, start_weekday=4, decay=0.55,
                          coupling=0.3, noise_ar=0.7,
                          outage_rate_per_day=0.5,
                          bad_weather_probability=0.5,
                          incident_rate_per_day=3.0)


def run_both(network: RoadNetwork, seed: int, monkeypatch,
             config: SimulationConfig = CONFIG):
    """Run the simulator and the oracle; return both results and the next
    draw of each one's generator."""
    made: list[np.random.Generator] = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    n = network.num_nodes
    # The negative one drives a state below 0, into the lower clip.
    extra = [(10, 0, 0.6, 12), (STEPS_PER_DAY + 5, n - 1, 0.4, 30),
             (2 * STEPS_PER_DAY, n // 2, -0.9, 24),
             (3 * STEPS_PER_DAY - 4, n // 2, 0.5, 18)]
    result = TrafficSimulator(network, config, seed=seed).run(extra)
    reference = ReferenceSimulator(network, config, seed=seed).run(extra)
    assert len(made) == 2
    return result, reference, [rng.random(4) for rng in made]


def assert_equivalent(result, reference, draws, network):
    np.testing.assert_array_equal(result.missing_mask, reference.missing_mask)
    assert result.incident_log == reference.incident_log
    np.testing.assert_array_equal(draws[0], draws[1])
    np.testing.assert_allclose(result.density, reference.density,
                               rtol=RTOL, atol=4 * EPS)
    speed_atol = 4 * EPS * network.free_flow_speed.max()
    np.testing.assert_allclose(result.speed, reference.speed,
                               rtol=RTOL, atol=speed_atol)
    flow_atol = 16 * EPS * network.capacity.max()
    np.testing.assert_allclose(result.flow, reference.flow,
                               rtol=RTOL, atol=flow_atol)
    for field in ("timestamps", "time_of_day", "day_of_week"):
        np.testing.assert_array_equal(getattr(result, field),
                                      getattr(reference, field))


@pytest.mark.parametrize("topology", ["corridor", "grid", "radial"])
@pytest.mark.parametrize("num_nodes", [2, 3, 8, 58])
def test_matches_dense_step(topology, num_nodes, monkeypatch):
    """The 8- and 58-sensor corridors end in a sensor with no successor,
    and the 3-sensor radial hub's ring repeats a spoke edge."""
    network = build_network(num_nodes, topology=topology, seed=num_nodes)
    result, reference, draws = run_both(network, 7, monkeypatch)
    assert_equivalent(result, reference, draws, network)


def test_repeated_successor_counts_once(monkeypatch):
    """An edge listed twice weighs as one successor, as the dense
    operator's ``op[node, succ] = 1.0`` did; sensor 3 has no edges."""
    base = build_network(4, topology="corridor", seed=0)
    network = RoadNetwork(
        sources=np.array([0, 0, 0, 1, 1, 2]),
        targets=np.array([1, 2, 1, 2, 2, 0]),
        distances=np.ones(6),
        free_flow_speed=base.free_flow_speed,
        capacity=base.capacity)
    result, reference, draws = run_both(network, 5, monkeypatch)
    assert_equivalent(result, reference, draws, network)


def test_network_without_edges(monkeypatch):
    base = build_network(5, topology="corridor", seed=2)
    network = RoadNetwork(
        sources=np.zeros(0, dtype=np.int64),
        targets=np.zeros(0, dtype=np.int64), distances=np.zeros(0),
        free_flow_speed=base.free_flow_speed, capacity=base.capacity)
    result, reference, draws = run_both(network, 2, monkeypatch)
    assert_equivalent(result, reference, draws, network)


@pytest.mark.parametrize("start_weekday", [0, 5])
def test_one_day_demand_profile_is_bitwise_equal(start_weekday):
    network = build_network(8, topology="grid", seed=3)
    config = SimulationConfig(num_days=9, start_weekday=start_weekday,
                              bad_weather_probability=0.3)
    fresh = TrafficSimulator(network, config)._recurring_demand(
        np.random.default_rng(4))
    reference = ReferenceSimulator(network, config)._recurring_demand(
        np.random.default_rng(4), config.num_days * STEPS_PER_DAY)
    np.testing.assert_array_equal(fresh, reference)
