"""The content-addressed dataset cache: keys, hits, telemetry, hygiene."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import (CACHE_FORMAT_VERSION, CacheEntry, DatasetCache,
                            WindowConfig, cache_enabled, dataset_cache_key,
                            default_cache_dir, load_dataset)
from repro.datasets.catalog import DATASETS
from repro.datasets.generator import SimulationConfig
from repro.obs import EventBus, MemorySink, bus_scope


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    return directory


def kinds(sink):
    return [event.kind for event in sink.events if event.kind != "span"]


class TestKey:
    def base_key(self, **overrides):
        spec = DATASETS["metr-la"]
        sim = SimulationConfig(num_days=3)
        window = WindowConfig()
        parts = dict(spec=spec, sim_config=sim, window=window,
                     seed_offset=0, scale="ci")
        parts.update(overrides)
        return dataset_cache_key(parts["spec"], parts["sim_config"],
                                 parts["window"], parts["seed_offset"],
                                 parts["scale"])

    def test_deterministic(self):
        assert self.base_key() == self.base_key()
        assert len(self.base_key()) == 16

    def test_sensitive_to_every_input(self):
        base = self.base_key()
        assert self.base_key(spec=DATASETS["pems-bay"]) != base
        assert self.base_key(sim_config=SimulationConfig(num_days=4)) != base
        assert self.base_key(window=WindowConfig(history=6)) != base
        assert self.base_key(seed_offset=1) != base
        assert self.base_key(scale="bench") != base

    def test_format_version_in_key(self, monkeypatch):
        import repro.datasets.cache as cache_module

        base = self.base_key()
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION",
                            CACHE_FORMAT_VERSION + 1)
        assert self.base_key() != base


class TestEnabledSwitch:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATA_CACHE", raising=False)
        assert cache_enabled()

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", "OFF"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_DATA_CACHE", value)
        assert not cache_enabled()

    def test_env_disables_load_path(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_CACHE", "0")
        sink = MemorySink()
        with bus_scope(EventBus([sink])):
            load_dataset("metr-la", scale="ci")
        assert kinds(sink) == ["dataset_build"]
        assert not list(cache_dir.glob("*.npz"))

    def test_dir_override(self, cache_dir):
        assert default_cache_dir() == cache_dir


class TestLoadDatasetCaching:
    def test_miss_then_hit(self, cache_dir):
        sink = MemorySink()
        with bus_scope(EventBus([sink])):
            first = load_dataset("metr-la", scale="ci")
            second = load_dataset("metr-la", scale="ci")
        assert kinds(sink) == ["cache_miss", "dataset_build", "cache_hit"]
        miss, build, hit = [e for e in sink.events if e.kind != "span"]
        assert miss.key == hit.key
        assert build.cached
        np.testing.assert_array_equal(first.supervised.series,
                                      second.supervised.series)
        np.testing.assert_array_equal(first.adjacency, second.adjacency)

    def test_cached_equals_fresh(self, cache_dir):
        cached = load_dataset("metr-la", scale="ci")
        cached = load_dataset("metr-la", scale="ci")     # via cache
        fresh = load_dataset("metr-la", scale="ci", cache=False)
        idx = np.arange(4)
        for split_cached, split_fresh in zip(cached.supervised.splits,
                                             fresh.supervised.splits):
            xc, yc, sc = split_cached.batch(idx)
            xf, yf, sf = split_fresh.batch(idx)
            np.testing.assert_array_equal(xc, xf)
            np.testing.assert_array_equal(yc, yf)
            np.testing.assert_array_equal(sc, sf)

    def test_cache_false_always_builds(self, cache_dir):
        sink = MemorySink()
        with bus_scope(EventBus([sink])):
            load_dataset("metr-la", scale="ci", cache=False)
            load_dataset("metr-la", scale="ci", cache=False)
        assert kinds(sink) == ["dataset_build", "dataset_build"]
        assert not any(event.cached
                       for event in sink.of_kind("dataset_build"))

    def test_distinct_worlds_distinct_entries(self, cache_dir):
        load_dataset("metr-la", scale="ci")
        load_dataset("metr-la", scale="ci", seed_offset=1)
        load_dataset("pemsd8", scale="ci")
        entries = DatasetCache().entries()
        assert len(entries) == 3
        assert len({entry.key for entry in entries}) == 3

    def test_weekdays_only_roundtrip(self, cache_dir):
        built = load_dataset("pemsd7m", scale="ci")
        cached = load_dataset("pemsd7m", scale="ci")
        # weekday filtering happened before the save, and must not be
        # re-applied on the cached load
        assert (cached.simulation.day_of_week < 5).all()
        np.testing.assert_array_equal(cached.supervised.series,
                                      built.supervised.series)

    def test_corrupt_entry_recovers(self, cache_dir):
        sink = MemorySink()
        load_dataset("metr-la", scale="ci")
        (entry,) = DatasetCache().entries()
        entry.path.write_bytes(b"not an npz archive")
        with bus_scope(EventBus([sink])):
            rebuilt = load_dataset("metr-la", scale="ci")
        assert kinds(sink) == ["cache_miss", "dataset_build", ]
        assert rebuilt.num_nodes > 0
        (entry,) = DatasetCache().entries()      # re-written entry
        assert entry.path.stat().st_size > 100


class TestCacheStore:
    def test_entries_and_clear(self, cache_dir):
        load_dataset("metr-la", scale="ci")
        load_dataset("pemsd8", scale="ci")
        store = DatasetCache()
        entries = store.entries()
        assert {entry.name for entry in entries} == {"metr-la", "pemsd8"}
        assert all(entry.size_bytes > 0 for entry in entries)
        removed, freed = store.clear()
        assert removed == 2
        assert freed > 0
        assert store.entries() == []

    def test_info_by_prefix(self, cache_dir):
        load_dataset("metr-la", scale="ci")
        store = DatasetCache()
        (entry,) = store.entries()
        info = store.info(entry.key[:6])
        assert info["key"] == entry.key
        assert info["spec"]["name"] == "metr-la"
        assert info["scale"] == "ci"
        assert "speed" in info["arrays"]

    def test_info_unknown_key(self, cache_dir):
        with pytest.raises(KeyError, match="no cache entry"):
            DatasetCache().info("feedfacefeedface")

    def test_foreign_files_ignored(self, cache_dir):
        load_dataset("metr-la", scale="ci")
        cache_dir.joinpath("notes.txt").write_text("hi")
        cache_dir.joinpath("stray.npz").write_bytes(b"xx")
        entries = DatasetCache().entries()
        assert len(entries) == 1          # `stray` has no name_scale_key stem

    def test_put_is_atomic_no_stray_temps(self, cache_dir):
        load_dataset("metr-la", scale="ci")
        leftovers = [p for p in cache_dir.iterdir()
                     if p.suffix != ".npz" or "tmp" in p.stem]
        assert leftovers == []

    def test_entry_parse_roundtrip(self, cache_dir):
        load_dataset("metr-la", scale="ci")
        store = DatasetCache()
        (entry,) = store.entries()
        assert dataclasses.is_dataclass(entry)
        assert store.path_for(entry.name, entry.scale, entry.key) == entry.path


class TestFaultInjection:
    def test_truncated_entry_self_heals(self, cache_dir):
        fresh = load_dataset("metr-la", scale="ci", cache=False)
        load_dataset("metr-la", scale="ci")
        (entry,) = DatasetCache().entries()
        payload = entry.path.read_bytes()
        entry.path.write_bytes(payload[:len(payload) // 2])
        sink = MemorySink()
        with bus_scope(EventBus([sink])):
            rebuilt = load_dataset("metr-la", scale="ci")
            again = load_dataset("metr-la", scale="ci")
        assert kinds(sink) == ["cache_miss", "dataset_build", "cache_hit"]
        for world in (rebuilt, again):
            np.testing.assert_array_equal(world.supervised.series,
                                          fresh.supervised.series)
        (entry,) = DatasetCache().entries()
        assert entry.size_bytes == len(payload)

    def test_format_version_mismatch_is_a_miss(self, cache_dir, monkeypatch):
        import repro.datasets.cache as cache_module

        load_dataset("metr-la", scale="ci")
        (old,) = DatasetCache().entries()
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION",
                            CACHE_FORMAT_VERSION + 1)
        sink = MemorySink()
        with bus_scope(EventBus([sink])):
            load_dataset("metr-la", scale="ci")
        assert kinds(sink) == ["cache_miss", "dataset_build"]
        new = next(e for e in DatasetCache().entries() if e.key != old.key)
        # An old-version archive found under the new key (copied caches,
        # a key collision) is a miss, never served as the new world.
        new.path.write_bytes(old.path.read_bytes())
        assert DatasetCache().get(new.name, new.scale, new.key) is None
        with bus_scope(EventBus([sink])):
            load_dataset("metr-la", scale="ci")
        assert kinds(sink)[2:] == ["cache_miss", "dataset_build"]

    def test_racing_writers_leave_one_valid_entry(self, cache_dir):
        import sys
        import threading

        world = load_dataset("metr-la", scale="ci", cache=False)
        store, key = DatasetCache(), "0123456789abcdef"
        start = threading.Barrier(4)

        def write():
            start.wait(timeout=30)
            store.put(world, key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=write) for _ in range(4)]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        assert [p.name for p in cache_dir.iterdir()] == [
            store.path_for("metr-la", "ci", key).name]
        (entry,) = store.entries()
        cached = store.get(entry.name, entry.scale, entry.key)
        np.testing.assert_array_equal(cached.supervised.series,
                                      world.supervised.series)

    @pytest.mark.parametrize("name", ["tmpab_c_d1.npz", "tmp_x__.npz",
                                      "metr-la_ci_notahexkey.npz"])
    def test_non_entry_names_are_not_entries(self, cache_dir, name):
        # mkstemp names draw from [a-z0-9_], so an in-flight temp file
        # can look like name_scale_key; only a 16-hex-digit key counts.
        path = cache_dir / name
        cache_dir.mkdir()
        path.write_bytes(b"xx")
        assert CacheEntry.from_path(path) is None
