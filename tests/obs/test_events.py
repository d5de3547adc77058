"""Event types, bus dispatch/fan-out, sinks, and record round-trips."""

import json

import pytest

from repro.obs import (EVENT_KINDS, BatchEnd, BenchResult, CheckpointSaved,
                       ConsoleSink, EpochEnd, EvalDone, EventBus, GradClip,
                       JSONLSink, MemorySink, RunFinished, RunStarted,
                       SpanEvent, bus_scope, event_from_record,
                       event_to_record, get_bus, read_trace)


def sample_events():
    return [
        RunStarted(model="stgcn", dataset="metr-la", seed=3,
                   num_parameters=1234, config={"epochs": 2}),
        BatchEnd(epoch=1, batch=4, loss=0.5),
        EpochEnd(epoch=1, total_epochs=2, train_loss=0.41, val_mae=3.2,
                 seconds=1.5),
        EvalDone(inference_seconds=0.3, num_parameters=1234,
                 full={"15": {"mae": 3.0, "rmse": 4.0, "mape": 10.0}},
                 difficult={"15": {"mae": 4.5, "rmse": 5.0, "mape": 12.0}}),
        CheckpointSaved(path="ckpt.npz", num_arrays=7),
        RunFinished(model="stgcn", dataset="metr-la", seed=3,
                    wall_seconds=9.9, best_epoch=0, best_val_mae=3.2),
        BenchResult(suite="kernels", name="conv2d_backward", mode="full",
                    reference_seconds=0.04, fast_seconds=0.01, speedup=4.0,
                    meta={"kernel": [1, 3]}),
        GradClip(epoch=1, batch=3, norm=7.25, max_norm=5.0),
        SpanEvent(label="train/batch", span_id="2f", parent_id="1a",
                  t_start=1700000000.5, seconds=0.025, status="ok",
                  depth=2, thread=12345, attrs={"batch": 4}),
    ]


class TestEventRecords:
    @pytest.mark.parametrize("event", sample_events(),
                             ids=lambda e: e.kind)
    def test_round_trip(self, event):
        record = event_to_record(event)
        assert record["event"] == event.kind
        assert json.loads(json.dumps(record)) == record   # JSON-safe
        assert event_from_record(record) == event

    def test_kind_registry_complete(self):
        assert set(EVENT_KINDS) == {e.kind for e in sample_events()}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_record({"event": "nope"})

    def test_unknown_fields_ignored(self):
        record = event_to_record(BatchEnd(epoch=1, batch=2, loss=0.1))
        record["added_in_v2"] = "whatever"
        assert event_from_record(record) == BatchEnd(
            epoch=1, batch=2, loss=0.1, t=record["t"])


class TestEventBus:
    def test_fan_out_order_and_content(self):
        first, second = MemorySink(), MemorySink()
        bus = EventBus([first, second])
        events = sample_events()
        for event in events:
            bus.emit(event)
        assert first.events == events
        assert second.events == events

    def test_attach_detach(self):
        bus = EventBus()
        sink = MemorySink()
        bus.attach(sink)
        bus.emit(BatchEnd(epoch=1, batch=1, loss=0.1))
        bus.detach(sink)
        bus.detach(sink)            # idempotent
        bus.emit(BatchEnd(epoch=1, batch=2, loss=0.2))
        assert len(sink.events) == 1

    def test_scoped_sink(self):
        bus = EventBus()
        sink = MemorySink()
        with bus.scoped(sink):
            bus.emit(BatchEnd(epoch=1, batch=1, loss=0.1))
        bus.emit(BatchEnd(epoch=1, batch=2, loss=0.2))
        assert len(sink.events) == 1

    def test_emit_without_sinks_is_noop(self):
        EventBus().emit(BatchEnd())     # must not raise

    def test_has_sinks(self):
        bus = EventBus()
        assert not bus.has_sinks
        sink = MemorySink()
        bus.attach(sink)
        assert bus.has_sinks
        bus.detach(sink)
        assert not bus.has_sinks

    def test_poisoned_sink_does_not_break_the_run(self):
        """A sink raising mid-run must not take telemetry (or training)
        down with it: the bus warns once per sink and keeps emitting to
        the healthy ones."""
        calls = []

        def poisoned(event):
            calls.append(event)
            raise RuntimeError("disk full")

        healthy = MemorySink()
        bus = EventBus([poisoned, healthy])
        events = [BatchEnd(epoch=1, batch=b, loss=0.1) for b in range(3)]
        with pytest.warns(RuntimeWarning, match="disk full") as record:
            for event in events:
                bus.emit(event)
        assert healthy.events == events          # fan-out survived
        assert len(calls) == 3                   # poisoned sink still called
        assert len(record) == 1                  # but warned only once

    def test_each_poisoned_sink_warns_independently(self):
        def bad_a(event):
            raise ValueError("a")

        def bad_b(event):
            raise ValueError("b")

        bus = EventBus([bad_a, bad_b])
        with pytest.warns(RuntimeWarning) as record:
            bus.emit(BatchEnd())
            bus.emit(BatchEnd())
        messages = [str(w.message) for w in record]
        assert len(messages) == 2
        assert any("ValueError('a')" in m for m in messages)
        assert any("ValueError('b')" in m for m in messages)

    def test_memory_sink_kind_filter(self):
        sink = MemorySink()
        bus = EventBus([sink])
        for event in sample_events():
            bus.emit(event)
        assert [e.kind for e in sink.of_kind("epoch_end")] == ["epoch_end"]

    def test_ambient_bus_scope(self):
        default = get_bus()
        inner = EventBus()
        with bus_scope(inner):
            assert get_bus() is inner
        assert get_bus() is default


class TestConsoleSink:
    def test_epoch_line_matches_legacy_verbose_format(self, capsys):
        ConsoleSink()(EpochEnd(epoch=2, total_epochs=5, train_loss=0.1234,
                               val_mae=3.4567, seconds=1.23))
        out = capsys.readouterr().out
        assert out == "  epoch 2/5 loss=0.1234 val_mae=3.4567 (1.2s)\n"

    def test_kind_filter(self, capsys):
        sink = ConsoleSink(kinds=("epoch_end",))
        for event in sample_events():
            sink(event)
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "epoch 1/2" in out

    def test_bench_line_format(self):
        event = BenchResult(suite="kernels", name="col2im",
                            reference_seconds=0.04, fast_seconds=0.0125,
                            speedup=3.2)
        assert ConsoleSink().format(event) == (
            "[bench] col2im: reference 40.00ms -> 12.50ms (3.20x)")

    def test_every_kind_renders(self):
        sink = ConsoleSink()
        for event in sample_events():
            assert sink.format(event)


class TestJSONLSink:
    def test_emit_parse_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = sample_events()
        with JSONLSink(path) as sink:
            bus = EventBus([sink])
            for event in events:
                bus.emit(event)
        assert read_trace(path) == events

    def test_appends_across_reopen(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JSONLSink(path) as sink:
            sink(BatchEnd(epoch=1, batch=1, loss=0.1))
        with JSONLSink(path) as sink:
            sink(BatchEnd(epoch=1, batch=2, loss=0.2))
        assert len(read_trace(path)) == 2

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "trace.jsonl"
        with JSONLSink(path) as sink:
            sink(BatchEnd())
        assert path.exists()
