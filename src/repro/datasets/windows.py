"""Sliding-window supervised dataset construction (paper Sec. IV-B, V).

The forecasting task maps T'=12 historical graph signals to the next T=12
signals.  Inputs carry two features per node and step — the z-scored traffic
value and the min-max normalised time of day — exactly the preprocessing
described in the paper.  Splits are chronological at a 7:1:2 ratio.

The pipeline is **lazy by default**: a :class:`WindowSource` keeps one
scaled copy of the series plus zero-copy
``numpy.lib.stride_tricks.sliding_window_view`` views over it, and each
:class:`SupervisedSplit` stores only its window start indices.  Batches are
gathered on demand (``split.batch(indices)``), so a dataset resident in
memory costs O(T·N) instead of the O(S·T'·N·2) of eagerly stacked input
tensors (~24x the series).  ``split.x`` / ``split.y`` remain available as
materialising properties, and ``split.materialize()`` /
``dataset.materialize()`` force the eager arrays — the pre-refactor
behaviour — so equivalence tests can hold lazy and eager batches to exact
equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalers import MinMaxScaler, StandardScaler

__all__ = ["WindowConfig", "WindowSource", "SupervisedSplit",
           "SupervisedDataset", "make_windows"]


@dataclass
class WindowConfig:
    history: int = 12        # T'
    horizon: int = 12        # T
    train_ratio: float = 0.7
    val_ratio: float = 0.1   # test gets the remainder (0.2)
    # Optional third input feature (day-of-week / 6), as used by GMAN's
    # original temporal embedding; the paper's protocol uses two features.
    include_day_of_week: bool = False


class WindowSource:
    """Shared view-backed state behind every split of one dataset.

    Holds the raw series, its scaled copy, the scaled time-of-day signal
    (and optionally day-of-week), the fitted scalers, and zero-copy sliding
    views over all of them.  The three chronological splits each keep only
    window start indices into this source, so the resident cost of a lazy
    dataset is the O(T·N) arrays here — nothing per window.
    """

    def __init__(self, series: np.ndarray, scaled: np.ndarray,
                 scaled_time: np.ndarray, config: WindowConfig,
                 scaler: StandardScaler,
                 scaled_day_of_week: np.ndarray | None = None):
        self.series = series
        self.scaled = scaled
        self.scaled_time = scaled_time
        self.scaled_day_of_week = scaled_day_of_week
        self.config = config
        self.scaler = scaler
        sliding = np.lib.stride_tricks.sliding_window_view
        # All windows of every split are gathered from sliding views over
        # the full series (no per-window Python loop and no per-window
        # storage); a batch is one fancy-index per feature.
        self._hist_view = sliding(scaled, config.history, axis=0)
        self._time_view = sliding(scaled_time, config.history)
        self._future_view = sliding(series, config.horizon, axis=0)
        self._scaled_future_view = sliding(scaled, config.horizon, axis=0)
        self._dow_view = (sliding(scaled_day_of_week, config.history)
                          if scaled_day_of_week is not None else None)

    @property
    def num_nodes(self) -> int:
        return self.series.shape[1]

    @property
    def num_features(self) -> int:
        """Input features per node and step (2, or 3 with day-of-week)."""
        return 2 if self._dow_view is None else 3

    @property
    def resident_nbytes(self) -> int:
        """Bytes held by the source arrays (views over them are free)."""
        total = (self.series.nbytes + self.scaled.nbytes
                 + self.scaled_time.nbytes)
        if self.scaled_day_of_week is not None:
            total += self.scaled_day_of_week.nbytes
        return total

    def gather_x(self, starts: np.ndarray) -> np.ndarray:
        """Stack the input features for windows starting at ``starts``.

        Writes each feature channel into one pre-allocated output (the
        broadcast of the time/day signals over nodes happens inside the
        assignment) — no ``np.stack`` intermediate.
        """
        x_traffic = self._hist_view[starts].transpose(0, 2, 1)   # (B, T', N)
        out = np.empty(x_traffic.shape + (self.num_features,))
        out[..., 0] = x_traffic
        out[..., 1] = self._time_view[starts][:, :, None]
        if self._dow_view is not None:
            out[..., 2] = self._dow_view[starts][:, :, None]
        return out

    def gather_y(self, first_targets: np.ndarray,
                 scaled: bool = False) -> np.ndarray:
        """Targets for windows whose first target step is ``first_targets``.

        ``scaled=True`` gathers from the pre-scaled series instead of
        transforming after the gather — same values bitwise (the z-score is
        elementwise), computed once per dataset instead of once per batch.
        """
        view = self._scaled_future_view if scaled else self._future_view
        return np.ascontiguousarray(view[first_targets].transpose(0, 2, 1))


class SupervisedSplit:
    """One chronological split of windowed samples.

    Lazy by default: holds a :class:`WindowSource` plus window start
    indices and gathers batches on demand via :meth:`batch`.  The ``x`` /
    ``y`` properties materialise (and cache) the full eager arrays for
    code that needs them; :meth:`materialize` forces both.  Splits may
    also be constructed directly from eager arrays
    (``SupervisedSplit(x=..., y=..., start_index=...)``), which is what
    the reference pipeline and hand-built test fixtures do.

    Attributes
    ----------
    x:
        ``(S, T', N, F)`` inputs — feature 0 is the scaled traffic value,
        feature 1 the normalised time of day (materialises on access).
    y:
        ``(S, T, N)`` targets in *original* units (metrics are computed in
        original units; models predict scaled values that the experiment
        runner inverse-transforms).
    start_index:
        ``(S,)`` index into the full series of each window's first target
        step — used to align predictions with difficult-interval masks.
    """

    def __init__(self, x: np.ndarray | None = None,
                 y: np.ndarray | None = None,
                 start_index: np.ndarray | None = None, *,
                 source: WindowSource | None = None,
                 starts: np.ndarray | None = None):
        if source is not None:
            if starts is None:
                raise ValueError("lazy split needs window start indices")
            self._starts = np.asarray(starts)
            self.start_index = self._starts + source.config.history
        else:
            if x is None or y is None or start_index is None:
                raise ValueError(
                    "eager split needs x, y and start_index arrays")
            self._starts = None
            self.start_index = np.asarray(start_index)
        self._source = source
        self._x = x
        self._y = y
        self._y_scaled = None          # (scaler, array) cache for batch()
        self._scaled_for = None

    # -- laziness ------------------------------------------------------- #
    @property
    def is_lazy(self) -> bool:
        """True while the full ``x`` tensor has not been materialised."""
        return self._x is None

    def materialize(self) -> "SupervisedSplit":
        """Force (and cache) the eager ``x`` / ``y`` arrays; returns self."""
        _ = self.x, self.y
        return self

    @property
    def x(self) -> np.ndarray:
        if self._x is None:
            self._x = self._source.gather_x(self._starts)
        return self._x

    @property
    def y(self) -> np.ndarray:
        if self._y is None:
            self._y = self._source.gather_y(self.start_index)
        return self._y

    # -- geometry ------------------------------------------------------- #
    @property
    def num_samples(self) -> int:
        return len(self.start_index)

    @property
    def num_features(self) -> int:
        """Input features per node and step (without materialising)."""
        if self._x is not None:
            return self._x.shape[-1]
        return self._source.num_features

    @property
    def resident_nbytes(self) -> int:
        """Bytes resident in this split right now (excludes the shared
        source; a lazy, never-materialised split costs only its indices)."""
        total = self.start_index.nbytes
        for cached in (self._x, self._y, self._y_scaled):
            if cached is not None:
                total += cached.nbytes
        return total

    @property
    def materialized_nbytes(self) -> int:
        """Bytes the eager ``x`` + ``y`` arrays occupy (analytic — does not
        materialise anything)."""
        if self._source is not None:
            config = self._source.config
            nodes = self._source.num_nodes
            history, horizon = config.history, config.horizon
            features = self._source.num_features
        else:
            history, nodes, features = self._x.shape[1:]
            horizon = self._y.shape[1]
        itemsize = 8
        per_sample = (history * nodes * features + horizon * nodes) * itemsize
        return self.num_samples * per_sample + self.start_index.nbytes

    # -- batching ------------------------------------------------------- #
    def batch(self, indices: np.ndarray, target_scaler=None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather ``(x, y, start_index)`` for the given sample indices.

        ``target_scaler`` returns targets in scaled units instead of
        original units, hoisting the per-batch ``scaler.transform`` out of
        training loops: a lazy split gathers straight from the pre-scaled
        series when the scaler is the dataset's own, and an eager split
        transforms its full target array once and caches it.
        """
        indices = np.asarray(indices)
        if self._x is not None:                       # eager / materialised
            x = self._x[indices]
            if target_scaler is None:
                y = self.y[indices]
            else:
                y = self._scaled_targets(target_scaler)[indices]
        else:
            starts = self._starts[indices]
            x = self._source.gather_x(starts)
            first_targets = starts + self._source.config.history
            if target_scaler is None:
                y = self._source.gather_y(first_targets)
            elif target_scaler is self._source.scaler:
                y = self._source.gather_y(first_targets, scaled=True)
            else:
                y = target_scaler.transform(
                    self._source.gather_y(first_targets))
        return x, y, self.start_index[indices]

    def _scaled_targets(self, scaler) -> np.ndarray:
        """Targets transformed by ``scaler``, computed once and cached."""
        if self._y_scaled is None or self._scaled_for is not scaler:
            self._y_scaled = scaler.transform(self.y)
            self._scaled_for = scaler
        return self._y_scaled


@dataclass
class SupervisedDataset:
    """Windowed dataset with its scalers and raw series."""

    train: SupervisedSplit
    val: SupervisedSplit
    test: SupervisedSplit
    scaler: StandardScaler
    time_scaler: MinMaxScaler
    series: np.ndarray        # (T_total, N) raw traffic values
    config: WindowConfig

    @property
    def num_nodes(self) -> int:
        return self.series.shape[1]

    @property
    def splits(self) -> tuple[SupervisedSplit, SupervisedSplit,
                              SupervisedSplit]:
        return self.train, self.val, self.test

    def materialize(self) -> "SupervisedDataset":
        """Force eager arrays for every split; returns self."""
        for split in self.splits:
            split.materialize()
        return self

    @property
    def resident_nbytes(self) -> int:
        """Bytes the dataset holds right now: the shared window source
        (counted once) plus whatever each split has materialised."""
        sources = {id(s._source): s._source for s in self.splits
                   if s._source is not None}
        total = sum(source.resident_nbytes for source in sources.values())
        return total + sum(s.resident_nbytes for s in self.splits)

    @property
    def materialized_nbytes(self) -> int:
        """Bytes a fully eager copy of every split would occupy."""
        return sum(s.materialized_nbytes for s in self.splits)


def make_windows(series: np.ndarray, time_of_day: np.ndarray,
                 config: WindowConfig | None = None,
                 null_value: float | None = 0.0,
                 day_of_week: np.ndarray | None = None) -> SupervisedDataset:
    """Build chronological train/val/test windows from a raw series.

    Splits are lazy (view-backed); call :meth:`SupervisedDataset.materialize`
    on the result for eager arrays.

    Parameters
    ----------
    series:
        ``(T_total, N)`` raw measurements (speed in mph or flow in veh/5min),
        with missing entries as ``null_value``.
    time_of_day:
        ``(T_total,)`` fraction of day in [0, 1).
    day_of_week:
        ``(T_total,)`` integers 0–6; required when
        ``config.include_day_of_week`` is set.
    """
    config = config or WindowConfig()
    series = np.asarray(series, dtype=float)
    time_of_day = np.asarray(time_of_day, dtype=float)
    if series.ndim != 2:
        raise ValueError(f"series must be (T, N), got shape {series.shape}")
    if len(time_of_day) != len(series):
        raise ValueError("time_of_day length must match series length")
    scaled_dow = None
    if config.include_day_of_week:
        if day_of_week is None:
            raise ValueError(
                "include_day_of_week requires the day_of_week array")
        day_of_week = np.asarray(day_of_week, dtype=float)
        if len(day_of_week) != len(series):
            raise ValueError("day_of_week length must match series length")
        scaled_dow = day_of_week / 6.0
    total = len(series)
    window = config.history + config.horizon
    if total < window + 10:
        raise ValueError(
            f"series of length {total} too short for window {window}")

    train_end = int(total * config.train_ratio)
    val_end = int(total * (config.train_ratio + config.val_ratio))

    scaler = StandardScaler(null_value=null_value).fit(series[:train_end])
    time_scaler = MinMaxScaler().fit(time_of_day[:train_end])
    scaled = scaler.transform(series)
    scaled_time = time_scaler.transform(time_of_day)

    source = WindowSource(series=series, scaled=scaled,
                          scaled_time=scaled_time, config=config,
                          scaler=scaler, scaled_day_of_week=scaled_dow)

    def build(start: int, end: int) -> SupervisedSplit:
        starts = np.arange(start, end - window + 1)
        if len(starts) == 0:
            raise ValueError(
                f"split [{start}, {end}) too short for window {window}")
        return SupervisedSplit(source=source, starts=starts)

    return SupervisedDataset(
        train=build(0, train_end),
        val=build(train_end, val_end),
        test=build(val_end, total),
        scaler=scaler, time_scaler=time_scaler,
        series=series, config=config)
