"""The traffic simulator — synthetic stand-in for the PeMS detector feeds.

The simulator produces a per-sensor normalised density series at 5-minute
resolution by composing:

1. **Recurring demand** — a daily profile with morning and evening rush
   peaks (each sensor has its own commute orientation, so some peak in the
   AM, some in the PM), damped on weekends.
2. **Congestion waves** — densities couple along graph edges: a congested
   downstream sensor backs traffic up to its upstream neighbours with a lag,
   through a first-order spatio-temporal filter.  This is the spatial
   correlation the graph models exploit.
3. **Incidents** — Poisson-arriving non-recurring events that spike the
   density of a sensor abruptly and decay over ~30–90 minutes, propagating
   upstream.  These create the "abruptly changing intervals" studied in the
   paper's Sec. V-B.
4. **Measurement noise** — AR(1) sensor noise plus occasional missing
   readings recorded as 0 (the PeMS convention, handled by masked metrics).

Densities convert to speed or flow via the fundamental diagram
(:mod:`repro.datasets.fundamental`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.road_network import RoadNetwork
from .fundamental import flow_from_density, speed_from_density

__all__ = ["SimulationConfig", "TrafficSimulator", "SimulationResult",
           "STEPS_PER_DAY", "STEPS_PER_HOUR"]

STEPS_PER_HOUR = 12          # 5-minute aggregation, as PeMS
STEPS_PER_DAY = 24 * STEPS_PER_HOUR


@dataclass
class SimulationConfig:
    """Knobs controlling the synthetic traffic process."""

    num_days: int = 8
    start_weekday: int = 0            # 0 = Monday
    rush_intensity: float = 0.45      # peak recurring density contribution
    weekend_factor: float = 0.45      # demand multiplier on Sat/Sun
    coupling: float = 0.25            # upstream <- downstream congestion coupling
    decay: float = 0.60               # congestion persistence per step
    incident_rate_per_day: float = 1.2  # expected incidents per sensor-day / 100
    incident_magnitude: tuple[float, float] = (0.35, 0.7)
    incident_duration_steps: tuple[int, int] = (6, 18)   # 30–90 minutes
    noise_std: float = 0.02           # AR(1) innovation std on density
    noise_ar: float = 0.6
    missing_rate: float = 0.01        # fraction of readings dropped to 0
    demand_jitter: float = 0.08       # day-to-day random demand variation
    # Sensor outages: real detectors fail for contiguous stretches, not
    # i.i.d. samples.  Expected outages per sensor-day, and their length.
    outage_rate_per_day: float = 0.0
    outage_duration_steps: tuple[int, int] = (12, 72)   # 1-6 hours
    # Weather regime: probability that a day is "bad weather", which raises
    # demand network-wide (slower traffic everywhere, all day).
    bad_weather_probability: float = 0.0
    bad_weather_demand_factor: float = 1.35


@dataclass
class SimulationResult:
    """Output of a simulation run.

    Attributes
    ----------
    density:
        ``(T, N)`` normalised densities in [0, ~0.95].
    speed / flow:
        ``(T, N)`` measurements derived from density.  Missing readings are
        zeros in both (PeMS convention).
    timestamps:
        ``(T,)`` minutes since simulation start.
    time_of_day:
        ``(T,)`` fraction of day in [0, 1).
    day_of_week:
        ``(T,)`` integers, 0=Monday.
    missing_mask:
        ``(T, N)`` boolean, True where the reading was dropped.
    incident_log:
        list of ``(step, node, magnitude, duration)`` tuples (ground truth
        for difficult-interval validation).
    """

    density: np.ndarray
    speed: np.ndarray
    flow: np.ndarray
    timestamps: np.ndarray
    time_of_day: np.ndarray
    day_of_week: np.ndarray
    missing_mask: np.ndarray
    incident_log: list[tuple[int, int, float, int]] = field(default_factory=list)


class TrafficSimulator:
    """Simulates 5-minute traffic measurements over a road network."""

    def __init__(self, network: RoadNetwork, config: SimulationConfig | None = None,
                 seed: int = 0):
        self.network = network
        self.config = config or SimulationConfig()
        self.seed = seed

    # ------------------------------------------------------------------ #
    def run(self, extra_incidents: list[tuple[int, int, float, int]] | None = None
            ) -> SimulationResult:
        """Run the simulation.

        Parameters
        ----------
        extra_incidents:
            Optional deterministic incidents ``(step, node, magnitude,
            duration)`` injected *on top of* the stochastic ones — the
            counterfactual API: rerunning with the same seed plus one
            injected incident yields a world identical except for that
            event and its downstream congestion.
        """
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        n = self.network.num_nodes
        total_steps = cfg.num_days * STEPS_PER_DAY

        demand = self._recurring_demand(rng)                       # (T, N)
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

        # Convex spatio-temporal filter: with feed = 1 - decay - coupling the
        # fixed point of the recursion equals the demand level, so recurring
        # density tracks the daily profile while congestion still spills
        # upstream through the coupling term.
        feed = 1.0 - cfg.decay - cfg.coupling
        if feed <= 0:
            raise ValueError(
                f"decay ({cfg.decay}) + coupling ({cfg.coupling}) must be < 1 "
                "for stable congestion dynamics")
        # The step state is [density state, AR(1) noise]: one gather moves
        # both.  Demand enters every step only as feed·demand + incident
        # forcing, so that sum is formed once, in place in the demand
        # buffer, and the forcing buffer is released before the loop.
        size = 2 * n
        augmented = np.zeros(size)
        state, noise = augmented[:n], augmented[n:]
        state[:] = demand[0]
        drive = demand
        drive *= feed
        drive += incident_forcing
        del demand, incident_forcing
        rows, columns, weights = self._step_operator()
        # One draw for every step's shocks: the same stream, in the same
        # order, as a draw per step, and the generator ends in the same
        # state for the ``missing`` draws below.  Each row of the buffer
        # is overwritten by that step's unclipped density once its shock
        # is read; the whole buffer is clipped after the loop.
        density = rng.normal(0.0, cfg.noise_std, size=(total_steps, n))
        # A step is a few small numpy calls, so their dispatch is most of
        # its cost: the functions are bound to locals, ``out`` is
        # positional where numpy allows it, and the clip bounds are 0-d
        # arrays.
        multiply, add, maximum, minimum = (np.multiply, np.add, np.maximum,
                                           np.minimum)
        bincount, copyto = np.bincount, np.copyto
        floor, ceiling = np.zeros(()), np.full((), 0.95)
        for drive_t, row in zip(drive, density):
            terms = augmented[columns]
            multiply(terms, weights, terms)
            copyto(augmented, bincount(rows, terms, size))
            add(state, drive_t, state)
            add(noise, row, noise)
            maximum(state, floor, out=state)
            minimum(state, ceiling, out=state)
            add(state, noise, row)
        del drive                  # released before speed and flow exist
        np.minimum(np.maximum(density, 0.0, out=density), 0.95, out=density)

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

    # ------------------------------------------------------------------ #
    def _recurring_demand(self, rng: np.random.Generator) -> np.ndarray:
        """Daily double-peak demand per sensor, damped on weekends.

        The profile is the same every day, so it is evaluated on one day's
        steps and broadcast across the days, each scaled by its weekend
        damping and jitter.
        """
        cfg = self.config
        n = self.network.num_nodes
        num_days = cfg.num_days
        hours = (np.arange(STEPS_PER_DAY) / STEPS_PER_HOUR)[:, None]

        # Per-sensor commute orientation: 0 = AM-heavy, 1 = PM-heavy.
        orientation = rng.random(n)
        am_weight = 1.2 - 0.8 * orientation
        pm_weight = 0.4 + 0.8 * orientation
        am_center = rng.normal(8.0, 0.4, size=n)
        pm_center = rng.normal(17.5, 0.4, size=n)
        width = rng.uniform(1.0, 1.8, size=n)
        base = rng.uniform(0.04, 0.12, size=n)   # light overnight density

        am_peak = np.exp(-((hours - am_center) / width) ** 2)
        pm_peak = np.exp(-((hours - pm_center) / width) ** 2)
        midday = 0.25 * np.exp(-((hours - 13.0) / 3.0) ** 2)

        profile = cfg.rush_intensity * (am_weight * am_peak
                                        + pm_weight * pm_peak + midday)
        one_day = base + profile                              # (288, N)

        weekday = (np.arange(num_days) + cfg.start_weekday) % 7
        weekend = (weekday >= 5).astype(float)
        day_scale = 1.0 - (1.0 - cfg.weekend_factor) * weekend
        day_jitter = rng.normal(1.0, cfg.demand_jitter, size=num_days)
        if cfg.bad_weather_probability > 0:
            bad_day = rng.random(num_days) < cfg.bad_weather_probability
            day_jitter = np.where(
                bad_day, day_jitter * cfg.bad_weather_demand_factor,
                day_jitter)
        demand = (one_day * (day_scale * day_jitter)[:, None, None]
                  ).reshape(num_days * STEPS_PER_DAY, n)
        return np.clip(demand, 0.0, 0.9, out=demand)

    # ------------------------------------------------------------------ #
    def _incidents(self, rng: np.random.Generator, total_steps: int):
        """Non-recurring incident shocks: abrupt onset, gradual clearance."""
        cfg = self.config
        n = self.network.num_nodes
        forcing = np.zeros((total_steps, n))
        # Incidents per sensor follow a Poisson process.
        expected = cfg.incident_rate_per_day * cfg.num_days
        log: list[tuple[int, int, float, int]] = []
        num_events = rng.poisson(expected * n / 30.0) + max(1, n // 8)
        for _ in range(num_events):
            node = int(rng.integers(n))
            start = int(rng.integers(total_steps))
            magnitude = float(rng.uniform(*cfg.incident_magnitude))
            duration = int(rng.integers(cfg.incident_duration_steps[0],
                                        cfg.incident_duration_steps[1] + 1))
            stop = min(total_steps, start + duration)
            steps = np.arange(stop - start)
            # Abrupt onset (full magnitude immediately), exponential clearing.
            shape = magnitude * np.exp(-steps / max(1.0, duration / 2.5))
            forcing[start:stop, node] += shape
            log.append((start, node, magnitude, duration))
        return forcing, log

    # ------------------------------------------------------------------ #
    def _outages(self, rng: np.random.Generator, total_steps: int) -> np.ndarray:
        """Contiguous per-sensor failure stretches (block missingness)."""
        cfg = self.config
        n = self.network.num_nodes
        mask = np.zeros((total_steps, n), dtype=bool)
        expected = cfg.outage_rate_per_day * cfg.num_days
        for node in range(n):
            for _ in range(rng.poisson(expected)):
                start = int(rng.integers(total_steps))
                duration = int(rng.integers(cfg.outage_duration_steps[0],
                                            cfg.outage_duration_steps[1] + 1))
                mask[start:start + duration, node] = True
        return mask

    # ------------------------------------------------------------------ #
    def _step_operator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The linear part of one step as a neighbour gather.

        Row ``i < N`` of the step reads sensor ``i`` with weight ``decay``
        and each of its distinct downstream successors with weight
        ``coupling / out-degree``: congestion at a sensor is pushed to the
        sensors feeding into it (queue spillback).  Row ``N + i`` reads the
        noise of sensor ``i`` with weight ``noise_ar``.  Term ``j`` adds
        ``weights[j] * z[columns[j]]`` to row ``rows[j]``, and every row's
        own term comes first.  A step costs O(N + E), not O(N²).
        """
        cfg = self.config
        n = self.network.num_nodes
        hops = self.network.downstream_hops()
        # A successor listed twice counts once, as in a 0/1 adjacency.
        successors = [sorted(set(hops[node])) for node in range(n)]
        degree = np.array([len(s) for s in successors], dtype=np.intp)
        source = np.repeat(np.arange(n), degree)
        target = np.array([t for s in successors for t in s], dtype=np.intp)
        rows = np.concatenate([np.arange(2 * n), source])
        columns = np.concatenate([np.arange(2 * n), target])
        weights = np.concatenate([np.full(n, cfg.decay),
                                  np.full(n, cfg.noise_ar),
                                  cfg.coupling / degree[source]])
        return rows, columns, weights
