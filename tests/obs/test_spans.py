"""Span tracing: nesting, the no-op path, failure semantics, SpanTree."""

import threading

import pytest

from repro.core import TrainingConfig, run_experiment
from repro.obs import (EventBus, JSONLSink, MemorySink, SpanEvent, SpanTree,
                       bus_scope, disable_spans, span, span_report)


def recorded(sink):
    return [e for e in sink.events if isinstance(e, SpanEvent)]


class TestSpanNesting:
    def test_parent_linkage_and_depth(self):
        sink = MemorySink()
        bus = EventBus([sink])
        with span("a", bus=bus):
            with span("a/b", bus=bus):
                with span("a/b/c", bus=bus):
                    pass
        c, b, a = recorded(sink)              # innermost closes first
        assert [e.label for e in (a, b, c)] == ["a", "a/b", "a/b/c"]
        assert a.parent_id == "" and a.depth == 0
        assert b.parent_id == a.span_id and b.depth == 1
        assert c.parent_id == b.span_id and c.depth == 2

    def test_siblings_share_a_parent(self):
        sink = MemorySink()
        bus = EventBus([sink])
        with span("root", bus=bus):
            with span("first", bus=bus):
                pass
            with span("second", bus=bus):
                pass
        first, second, root = recorded(sink)
        assert first.parent_id == root.span_id
        assert second.parent_id == root.span_id
        assert first.span_id != second.span_id

    def test_current_span_tracks_the_stack(self):
        """A span opens under whichever span is open at that moment."""
        bus = EventBus([MemorySink()])
        with span("outer", bus=bus) as outer:
            with span("inner", bus=bus) as inner:
                assert inner.parent_id == outer.span_id
            with span("sibling", bus=bus) as sibling:
                assert sibling.parent_id == outer.span_id
        with span("after", bus=bus) as after:
            assert after.parent_id == "" and after.depth == 0

    def test_timing_and_status(self):
        sink = MemorySink()
        with span("timed", bus=EventBus([sink])):
            pass
        (event,) = recorded(sink)
        assert event.seconds >= 0
        assert event.t_start > 0
        assert event.status == "ok" and event.error == ""
        assert event.thread == threading.get_ident()

    def test_attrs_at_open_and_via_set(self):
        sink = MemorySink()
        with span("probe", bus=EventBus([sink]), size=32) as sp:
            sp.set(cache="hit")
        (event,) = recorded(sink)
        assert event.attrs == {"size": 32, "cache": "hit"}

    def test_fresh_thread_starts_a_new_root(self):
        sink = MemorySink()
        bus = EventBus([sink])
        done = threading.Event()

        def worker():
            with span("worker", bus=bus):
                pass
            done.set()

        with span("main", bus=bus):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert done.is_set()
        by_label = {e.label: e for e in recorded(sink)}
        assert by_label["worker"].parent_id == ""     # not under "main"
        assert by_label["worker"].depth == 0
        assert by_label["worker"].thread != by_label["main"].thread


class TestNoOpPath:
    def test_sinkless_bus_records_nothing(self):
        bus = EventBus()
        with span("quiet", bus=bus) as sp:
            assert repr(sp) == "<span disabled>"
            assert sp.set(anything="goes") is sp
            with span("inside", bus=EventBus([MemorySink()])) as inner:
                assert inner.parent_id == ""      # the no-op span is no parent

    def test_disable_spans_suppresses_recording(self):
        sink = MemorySink()
        bus = EventBus([sink])
        with disable_spans():
            with span("hidden", bus=bus):
                pass
            with disable_spans():             # nests
                pass
            with span("still hidden", bus=bus):
                pass
        assert recorded(sink) == []
        with span("shown", bus=bus):
            pass
        assert [e.label for e in recorded(sink)] == ["shown"]

    def test_span_follows_ambient_bus(self):
        with bus_scope(EventBus()):
            with span("quiet") as sp:
                assert repr(sp) == "<span disabled>"
        sink = MemorySink()
        with bus_scope(EventBus([sink])):
            with span("heard"):
                pass
        assert [e.label for e in recorded(sink)] == ["heard"]


class TestSpanFailure:
    def test_exception_marks_span_error_and_propagates(self):
        sink = MemorySink()
        with pytest.raises(ValueError, match="boom"):
            with span("fails", bus=EventBus([sink])):
                raise ValueError("boom")
        (event,) = recorded(sink)
        assert event.status == "error"
        assert event.error == "ValueError: boom"

    def test_ancestors_close_in_child_first_order_with_error(self):
        sink = MemorySink()
        bus = EventBus([sink])
        with pytest.raises(RuntimeError):
            with span("run", bus=bus):
                with span("run/epoch", bus=bus):
                    with span("run/epoch/batch", bus=bus):
                        raise RuntimeError("nan loss")
        events = recorded(sink)
        assert [e.label for e in events] == [
            "run/epoch/batch", "run/epoch", "run"]
        assert all(e.status == "error" for e in events)
        assert all("nan loss" in e.error for e in events)

    def test_stack_unwinds_cleanly_after_error(self):
        bus = EventBus([MemorySink()])
        with pytest.raises(ValueError):
            with span("doomed", bus=bus):
                raise ValueError()
        with span("after", bus=bus) as sp:    # next span is a fresh root
            assert sp.depth == 0


class TestSpanTree:
    def build_events(self, bus_sink):
        bus = EventBus([bus_sink])
        with span("run", bus=bus):
            with span("epoch", bus=bus):
                with span("batch", bus=bus):
                    pass
                with span("batch", bus=bus):
                    pass
        return bus_sink.events

    def test_reconstructs_hierarchy(self):
        sink = MemorySink()
        events = self.build_events(sink)
        tree = SpanTree(events)
        assert len(tree) == 4
        (root,) = tree.roots
        assert root.label == "run"
        (epoch,) = root.children
        assert epoch.label == "epoch"
        assert [c.label for c in epoch.children] == ["batch", "batch"]

    def test_walk_is_depth_first(self):
        sink = MemorySink()
        tree = SpanTree(self.build_events(sink))
        labels = [(node.label, depth) for node, depth in tree.walk()]
        assert labels == [("run", 0), ("epoch", 1),
                          ("batch", 2), ("batch", 2)]

    def test_self_time_excludes_children(self):
        sink = MemorySink()
        tree = SpanTree(self.build_events(sink))
        (root,) = tree.roots
        (epoch,) = root.children
        assert root.self_seconds <= root.seconds
        assert epoch.self_seconds == pytest.approx(
            epoch.seconds - sum(c.seconds for c in epoch.children))

    def test_aggregate_groups_by_label(self):
        sink = MemorySink()
        tree = SpanTree(self.build_events(sink))
        table = tree.aggregate()
        assert table["batch"]["count"] == 2
        assert table["run"]["errors"] == 0

    def test_non_span_events_are_ignored(self):
        from repro.obs import BatchEnd
        sink = MemorySink()
        events = self.build_events(sink) + [BatchEnd(epoch=1, batch=1)]
        assert len(SpanTree(events)) == 4

    def test_crashed_run_prefix_promotes_orphans_to_roots(self):
        """Spans are written innermost-first, so a crash loses the outer
        spans; their recorded children must become roots."""
        sink = MemorySink()
        self.build_events(sink)
        complete = recorded(sink)
        # Simulate the crash: the file ends before "epoch" and "run" close.
        prefix = [e for e in complete if e.label == "batch"]
        tree = SpanTree(prefix)
        assert len(tree) == 2
        assert [n.label for n in tree.roots] == ["batch", "batch"]
        assert all(n.children == [] for n in tree.roots)

    def test_partial_trace_report_still_renders(self):
        sink = MemorySink()
        self.build_events(sink)
        prefix = recorded(sink)[:-1]          # drop the closing "run" span
        text = span_report(prefix)
        assert "3 spans, 1 root(s)" in text
        assert "epoch" in text


class TestSpanReport:
    def test_empty_input(self):
        assert span_report([]) == "(no spans recorded)"

    def test_orders_by_self_time_and_counts_errors(self):
        sink = MemorySink()
        bus = EventBus([sink])
        with pytest.raises(ValueError):
            with span("work", bus=bus):
                raise ValueError("x")
        text = span_report(sink.events)
        assert "1 spans, 1 root(s)" in text
        line = next(l for l in text.splitlines() if l.startswith("work"))
        assert line.split()[-1] == "1"        # errors column

    def test_round_trips_via_jsonl(self, tmp_path, ci_dataset):
        """A traced run_experiment's JSONL reloads into the same tree the
        live events produce, and the report names the whole taxonomy."""
        path = tmp_path / "trace.jsonl"
        sink = MemorySink()
        config = TrainingConfig(epochs=1, batch_size=32,
                                max_batches_per_epoch=2, learning_rate=0.01)
        with JSONLSink(path) as jsonl:
            bus = EventBus([jsonl, sink])
            run_experiment("linear", ci_dataset, config, seed=0, bus=bus)
        live = SpanTree(sink.events)
        reloaded = SpanTree.from_trace(path)
        assert len(reloaded) == len(live) > 0
        assert ([n.label for n, _ in reloaded.walk()]
                == [n.label for n, _ in live.walk()])
        text = span_report(path)
        for label in ("experiment/run", "train/fit", "train/epoch",
                      "train/batch", "train/forward", "train/backward",
                      "train/optim", "train/validate", "eval/predict",
                      "data/gather"):
            assert label in text, f"missing {label} in report"
