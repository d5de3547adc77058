"""Metrics registry: counters, scoping, live wiring."""

import pytest

from repro.obs import MetricsRegistry, get_registry, registry_scope


class TestInstruments:
    def test_counter_increments(self):
        counter = MetricsRegistry().counter("hits")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("hits")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)


class TestRegistry:
    def test_create_or_fetch_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counters == {"x": registry.counter("x")}


class TestAmbientScope:
    def test_scope_swaps_and_restores(self):
        outer = get_registry()
        with registry_scope() as inner:
            assert get_registry() is inner
            assert inner is not outer
        assert get_registry() is outer

    def test_scope_accepts_explicit_registry(self):
        mine = MetricsRegistry()
        with registry_scope(mine) as got:
            assert got is mine
            assert get_registry() is mine


class TestLiveWiring:
    """The stack's built-in counters fill in during real work."""

    def test_cache_hit_ratio(self, tmp_path, monkeypatch):
        from repro.datasets import load_dataset

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with registry_scope() as registry:
            load_dataset("pemsd8", scale="ci")        # cold: miss
            load_dataset("pemsd8", scale="ci")        # warm: hit
            hits = registry.counter("data/cache_hits").value
            misses = registry.counter("data/cache_misses").value
        assert (hits, misses) == (1, 1)
        assert hits / (hits + misses) == pytest.approx(0.5)
