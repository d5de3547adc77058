"""Dataset persistence round-trip."""

import numpy as np
import pytest

from repro.datasets import load_dataset, save_dataset
from repro.datasets.io import load_archive

from ..conftest import digraph


def reload(path):
    """The world the dataset cache rebuilds from an archive."""
    return load_archive(path)[1]


@pytest.fixture(scope="module")
def saved(tmp_path_factory, ci_dataset):
    path = tmp_path_factory.mktemp("data") / "metr-la.npz"
    save_dataset(ci_dataset, path)
    return path, ci_dataset


class TestRoundTrip:
    def test_file_created(self, saved):
        path, _ = saved
        assert path.exists()
        assert path.stat().st_size > 0

    def test_simulation_arrays_identical(self, saved):
        path, original = saved
        loaded = reload(path)
        np.testing.assert_array_equal(loaded.simulation.speed,
                                      original.simulation.speed)
        np.testing.assert_array_equal(loaded.simulation.flow,
                                      original.simulation.flow)
        np.testing.assert_array_equal(loaded.simulation.missing_mask,
                                      original.simulation.missing_mask)

    def test_graph_identical(self, saved):
        path, original = saved
        loaded = reload(path)
        assert (set(digraph(loaded.network).edges)
                == set(digraph(original.network).edges))
        for name in ("sources", "targets", "distances"):
            np.testing.assert_array_equal(getattr(loaded.network, name),
                                          getattr(original.network, name))
        np.testing.assert_array_equal(loaded.adjacency, original.adjacency)
        np.testing.assert_allclose(loaded.network.free_flow_speed,
                                   original.network.free_flow_speed)

    def test_spec_preserved(self, saved):
        path, original = saved
        loaded = reload(path)
        assert loaded.spec == original.spec
        assert loaded.scale == original.scale

    def test_supervised_windows_rebuilt_identically(self, saved):
        path, original = saved
        loaded = reload(path)
        np.testing.assert_allclose(loaded.supervised.train.x,
                                   original.supervised.train.x)
        np.testing.assert_allclose(loaded.supervised.test.y,
                                   original.supervised.test.y)

    def test_incident_log_preserved(self, saved):
        path, original = saved
        loaded = reload(path)
        assert (len(loaded.simulation.incident_log)
                == len(original.simulation.incident_log))

    def test_flow_dataset_roundtrip(self, tmp_path, ci_flow_dataset):
        path = tmp_path / "flow.npz"
        save_dataset(ci_flow_dataset, path)
        loaded = reload(path)
        assert loaded.spec.task == "flow"
        np.testing.assert_allclose(loaded.values, ci_flow_dataset.values)

    def test_missing_mask_exact(self, saved):
        path, original = saved
        loaded = reload(path)
        assert loaded.simulation.missing_mask.dtype == \
            original.simulation.missing_mask.dtype
        np.testing.assert_array_equal(loaded.simulation.missing_mask,
                                      original.simulation.missing_mask)
        assert original.simulation.missing_mask.any()   # non-trivial mask

    def test_day_of_week_exact(self, saved):
        path, original = saved
        loaded = reload(path)
        np.testing.assert_array_equal(loaded.simulation.day_of_week,
                                      original.simulation.day_of_week)
        np.testing.assert_array_equal(loaded.simulation.time_of_day,
                                      original.simulation.time_of_day)
        np.testing.assert_array_equal(loaded.simulation.timestamps,
                                      original.simulation.timestamps)

    def test_incident_log_entries_exact(self, saved):
        path, original = saved
        loaded = reload(path)
        assert loaded.simulation.incident_log == \
            original.simulation.incident_log

    def test_include_day_of_week_roundtrip(self, tmp_path):
        from repro.datasets import WindowConfig

        original = load_dataset(
            "metr-la", scale="ci", cache=False,
            window=WindowConfig(include_day_of_week=True))
        path = tmp_path / "dow.npz"
        save_dataset(original, path)
        loaded = reload(path)
        assert loaded.supervised.train.num_features == 3
        idx = np.arange(3)
        x_orig, y_orig, _ = original.supervised.train.batch(idx)
        x_load, y_load, _ = loaded.supervised.train.batch(idx)
        np.testing.assert_array_equal(x_load, x_orig)
        np.testing.assert_array_equal(y_load, y_orig)
