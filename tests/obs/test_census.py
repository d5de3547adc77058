"""Telemetry census: every fact of a dataset load and a fit is recorded
in one channel — durations as spans, outcomes as events, and counters
only where a reader needs the number."""

import pytest

from repro.core import TrainingConfig
from repro.datasets import load_dataset
from repro.models import create_model
from repro.obs import EventBus, MemorySink, bus_scope, registry_scope
from repro.train import Engine

SPAN_LABELS = {
    "data/load", "data/build", "data/cache_get", "data/cache_put",
    "data/gather", "train/fit", "train/epoch", "train/batch",
    "train/forward", "train/backward", "train/optim", "train/validate",
    "eval/predict", "kernel/conv2d", "kernel/conv2d_backward",
}


@pytest.fixture
def census(tmp_path, monkeypatch):
    """A cold then a warm load of one world, then a 2-batch STGCN fit that
    clips every batch, under a fresh registry and one recording bus."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    sink = MemorySink()
    bus = EventBus([sink])
    config = TrainingConfig(epochs=1, batch_size=8, max_batches_per_epoch=2,
                            grad_clip=1e-9)
    with registry_scope() as registry, bus_scope(bus):
        load_dataset("pemsd8", scale="ci")
        dataset = load_dataset("pemsd8", scale="ci")
        model = create_model(
            "stgcn", dataset.num_nodes, dataset.adjacency,
            history=dataset.supervised.config.history,
            horizon=dataset.supervised.config.horizon,
            in_features=dataset.supervised.train.num_features, seed=0)
        Engine(config).fit(model, dataset, seed=0, bus=bus)
    return sink, registry, dataset


def test_event_kinds_and_span_labels(census):
    sink, _, _ = census
    assert {e.kind for e in sink.events} == {
        "span", "grad_clip", "batch_end", "epoch_end"}
    assert {e.label for e in sink.of_kind("span")} == SPAN_LABELS
    assert [e.batch for e in sink.of_kind("batch_end")] == [1, 2]


def test_load_spans_carry_the_cache_outcome(census):
    sink, _, dataset = census
    spans = sink.of_kind("span")
    loads = [e for e in spans if e.label == "data/load"]
    assert [e.attrs["cache"] for e in loads] == ["miss", "hit"]
    assert loads[0].attrs["key"] == loads[1].attrs["key"]
    (build,) = [e for e in spans if e.label == "data/build"]
    assert build.parent_id == loads[0].span_id
    assert build.attrs["num_nodes"] == dataset.num_nodes
    assert build.attrs["num_steps"] == len(dataset.simulation.time_of_day)


def test_registry_holds_only_the_cache_counts(census):
    _, registry, _ = census
    assert {name: counter.value
            for name, counter in registry.counters.items()} == {
        "data/cache_hits": 1, "data/cache_misses": 1}


def test_cache_spans_follow_the_load_bus(tmp_path, monkeypatch):
    """``load_dataset(bus=...)`` nests the cache's spans in its
    ``data/load`` span on that bus, warm or cold, and leaves the ambient
    bus alone."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    ambient, traced = MemorySink(), MemorySink()
    with bus_scope(EventBus([ambient])):
        bus = EventBus([traced])
        load_dataset("pemsd8", scale="ci", bus=bus)
        load_dataset("pemsd8", scale="ci", bus=bus)
    assert ambient.events == []
    spans = traced.of_kind("span")
    cold, warm = [e for e in spans if e.label == "data/load"]
    children = {}
    for e in spans:
        children.setdefault(e.parent_id, []).append(e)
    assert sorted(e.label for e in children[cold.span_id]) == [
        "data/build", "data/cache_get", "data/cache_put"]
    (get,) = children[warm.span_id]
    assert get.label == "data/cache_get" and get.attrs["hit"] is True
