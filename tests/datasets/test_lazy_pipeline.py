"""Lazy window pipeline: bitwise equivalence with the eager reference
pipeline, laziness bookkeeping, and memory accounting."""

import numpy as np
import pytest

from repro.datasets import (DataLoader, StandardScaler, WindowConfig,
                            make_windows)


@pytest.fixture(scope="module")
def series(ci_dataset):
    supervised = ci_dataset.supervised
    return supervised.series, ci_dataset.simulation.time_of_day


@pytest.fixture(scope="module")
def both(series):
    values, time_of_day = series
    lazy = make_windows(values, time_of_day)
    eager = make_windows(values, time_of_day).materialize()
    return lazy, eager


class TestReferenceSwitch:
    def test_default_is_lazy(self, both):
        lazy, eager = both
        assert all(s.is_lazy for s in lazy.splits)
        assert not any(s.is_lazy for s in eager.splits)


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("name", ["train", "val", "test"])
    def test_full_arrays_bitwise(self, both, name):
        lazy, eager = both
        lazy_split = getattr(lazy, name)
        eager_split = getattr(eager, name)
        np.testing.assert_array_equal(lazy_split.start_index,
                                      eager_split.start_index)
        # materialising the lazy split must reproduce the eager arrays
        # bit for bit (array_equal on float64 is exact)
        np.testing.assert_array_equal(lazy_split.x, eager_split.x)
        np.testing.assert_array_equal(lazy_split.y, eager_split.y)

    @pytest.mark.parametrize("name", ["train", "val", "test"])
    def test_batches_bitwise(self, both, name):
        lazy, eager = both
        lazy_split = getattr(lazy, name)
        eager_split = getattr(eager, name)
        rng = np.random.default_rng(7)
        indices = rng.choice(lazy_split.num_samples,
                             size=min(16, lazy_split.num_samples),
                             replace=False)
        for target_scaler in (None, lazy.scaler):
            x_lazy, y_lazy, s_lazy = lazy_split.batch(
                indices, target_scaler=target_scaler)
            x_eager, y_eager, s_eager = eager_split.batch(
                indices, target_scaler=target_scaler)
            np.testing.assert_array_equal(x_lazy, x_eager)
            np.testing.assert_array_equal(y_lazy, y_eager)
            np.testing.assert_array_equal(s_lazy, s_eager)

    def test_loader_epochs_bitwise(self, both):
        lazy, eager = both
        lazy_batches = list(DataLoader(lazy.train, batch_size=16,
                                       shuffle=True, seed=3,
                                       target_scaler=lazy.scaler))
        eager_batches = list(DataLoader(eager.train, batch_size=16,
                                        shuffle=True, seed=3,
                                        target_scaler=eager.scaler))
        assert len(lazy_batches) == len(eager_batches)
        for (xl, yl, sl), (xe, ye, se) in zip(lazy_batches, eager_batches):
            np.testing.assert_array_equal(xl, xe)
            np.testing.assert_array_equal(yl, ye)
            np.testing.assert_array_equal(sl, se)

    def test_foreign_scaler_goes_through_transform(self, both):
        lazy, eager = both
        other = StandardScaler().fit(lazy.series * 2.0 + 1.0)
        idx = np.arange(5)
        _, y_lazy, _ = lazy.train.batch(idx, target_scaler=other)
        _, y_eager, _ = eager.train.batch(idx, target_scaler=other)
        np.testing.assert_array_equal(y_lazy, y_eager)
        np.testing.assert_array_equal(y_lazy,
                                      other.transform(eager.train.y[idx]))

    def test_day_of_week_feature_bitwise(self, ci_dataset):
        sim = ci_dataset.simulation
        config = WindowConfig(include_day_of_week=True)
        lazy = make_windows(ci_dataset.supervised.series, sim.time_of_day,
                            config, day_of_week=sim.day_of_week)
        eager = make_windows(ci_dataset.supervised.series, sim.time_of_day,
                             config, day_of_week=sim.day_of_week).materialize()
        assert lazy.train.num_features == 3
        np.testing.assert_array_equal(lazy.train.x, eager.train.x)


class TestLaziness:
    def test_batch_does_not_materialize(self, series):
        values, time_of_day = series
        lazy = make_windows(values, time_of_day)
        lazy.train.batch(np.arange(8))
        assert lazy.train.is_lazy

    def test_materialize_flips_and_caches(self, series):
        values, time_of_day = series
        lazy = make_windows(values, time_of_day)
        split = lazy.val
        assert split.is_lazy
        assert split.materialize() is split
        assert not split.is_lazy
        assert split.x is split.x              # cached, not rebuilt

    def test_num_features_without_materializing(self, series):
        values, time_of_day = series
        lazy = make_windows(values, time_of_day)
        assert lazy.train.num_features == 2
        assert lazy.train.is_lazy

    def test_scaled_gather_skips_transform_but_matches(self, series):
        values, time_of_day = series
        lazy = make_windows(values, time_of_day)
        idx = np.arange(6)
        _, y_scaled, _ = lazy.train.batch(idx, target_scaler=lazy.scaler)
        _, y_raw, _ = lazy.train.batch(idx)
        np.testing.assert_array_equal(y_scaled, lazy.scaler.transform(y_raw))


class TestMemoryAccounting:
    def test_lazy_resident_far_below_materialized(self, series):
        values, time_of_day = series
        lazy = make_windows(values, time_of_day)
        assert lazy.materialized_nbytes >= 4 * lazy.resident_nbytes

    def test_resident_grows_on_materialize(self, series):
        values, time_of_day = series
        lazy = make_windows(values, time_of_day)
        before = lazy.resident_nbytes
        lazy.train.materialize()
        assert lazy.resident_nbytes > before

    def test_materialized_estimate_matches_actual(self, series):
        values, time_of_day = series
        lazy = make_windows(values, time_of_day)
        split = lazy.test
        estimate = split.materialized_nbytes
        split.materialize()
        actual = (split.x.nbytes + split.y.nbytes
                  + split.start_index.nbytes)
        assert estimate == actual

    def test_paper_scale_ratio_at_least_4x(self):
        from repro.datasets.catalog import DATASETS, _scaled_size
        from repro.bench.data import estimate_dataset_nbytes

        nodes, days = _scaled_size(DATASETS["metr-la"], "paper")
        eager, lazy = estimate_dataset_nbytes(nodes, days * 288)
        assert eager >= 4 * lazy
