"""Tracing a real experiment: JSONL schema, manifest, and summaries."""

import json

import pytest

from repro.core import TrainingConfig, run_experiment, train_model
from repro.models import create_model
from repro.obs import (EventBus, JSONLSink, MemorySink, bus_scope,
                       read_trace, summarize_trace, validate_trace)

FAST = TrainingConfig(epochs=1, batch_size=32, max_batches_per_epoch=3,
                      learning_rate=0.01)


@pytest.fixture(scope="module")
def traced_run(ci_dataset, tmp_path_factory):
    """One 1-epoch run_experiment with a JSONL sink + manifest attached."""
    out = tmp_path_factory.mktemp("trace")
    trace_path = out / "trace.jsonl"
    manifest_path = out / "run.json"
    bus = EventBus([JSONLSink(trace_path)])
    result = run_experiment("linear", ci_dataset, FAST, seed=0, bus=bus,
                            manifest_path=str(manifest_path))
    bus.close()
    return result, trace_path, manifest_path


class TestExperimentTrace:
    def test_trace_is_schema_valid(self, traced_run):
        _, trace_path, _ = traced_run
        assert validate_trace(trace_path) == []

    def test_event_sequence(self, traced_run):
        _, trace_path, _ = traced_run
        events = read_trace(trace_path)
        kinds = [e.kind for e in events if e.kind != "span"]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        assert kinds.count("batch_end") == 3
        assert kinds.count("epoch_end") == 1
        assert kinds.count("eval_done") == 1
        # the experiment/run span is the trace's outermost closing event
        assert [e.kind for e in events][-1] == "span"
        assert events[-1].label == "experiment/run"

    def test_epoch_end_carries_train_and_val_mae(self, traced_run):
        result, trace_path, _ = traced_run
        (epoch,) = [e for e in read_trace(trace_path)
                    if e.kind == "epoch_end"]
        assert epoch.train_loss == pytest.approx(
            result.history.train_losses[0])
        assert epoch.val_mae == pytest.approx(result.history.val_maes[0])
        assert epoch.seconds > 0

    def test_eval_done_matches_evaluation(self, traced_run):
        result, trace_path, _ = traced_run
        (done,) = [e for e in read_trace(trace_path)
                   if e.kind == "eval_done"]
        assert set(done.full) == {"15", "30", "60"}
        assert done.full["15"]["mae"] == pytest.approx(
            result.evaluation.full[15].mae)
        assert done.difficult["15"]["mae"] == pytest.approx(
            result.evaluation.difficult[15].mae)
        assert done.num_parameters == result.evaluation.num_parameters

    def test_manifest_written_and_complete(self, traced_run):
        result, _, manifest_path = traced_run
        manifest = json.loads(manifest_path.read_text())
        assert manifest["model"] == "linear"
        assert manifest["dataset"] == "metr-la"
        assert manifest["seed"] == 0
        assert manifest["config"]["epochs"] == 1
        assert manifest["num_parameters"] == (
            result.evaluation.num_parameters)
        assert manifest["wall_seconds"] > 0
        assert manifest["best_val_mae"] == pytest.approx(
            min(result.history.val_maes))
        assert manifest["test_mae_15"] == pytest.approx(
            result.evaluation.full[15].mae)

    def test_telemetry_does_not_change_results(self, ci_dataset):
        plain = run_experiment("linear", ci_dataset, FAST, seed=1)
        traced = run_experiment("linear", ci_dataset, FAST, seed=1,
                                bus=EventBus([MemorySink()]))
        assert (plain.evaluation.full[15].mae
                == pytest.approx(traced.evaluation.full[15].mae, rel=1e-12))

    def test_ambient_bus_traces_untouched_call(self, ci_dataset):
        """bus_scope instruments callers that pass no bus= argument."""
        sink = MemorySink()
        with bus_scope(EventBus([sink])):
            run_experiment("linear", ci_dataset, FAST, seed=0)
        assert sink.of_kind("run_started")
        assert sink.of_kind("run_finished")

    def test_train_model_emits_on_explicit_bus(self, ci_dataset):
        sink = MemorySink()
        model = create_model("linear", ci_dataset.num_nodes,
                             ci_dataset.adjacency, seed=0)
        train_model(model, ci_dataset, FAST, seed=0, bus=EventBus([sink]))
        assert len(sink.of_kind("epoch_end")) == 1
        assert len(sink.of_kind("batch_end")) == 3


class TestSummarizeTrace:
    def test_renders_report_tables(self, traced_run):
        _, trace_path, _ = traced_run
        text = summarize_trace(trace_path)
        assert "Trace [linear @ metr-la, seed 0]" in text
        assert "epoch" in text and "val MAE" in text
        assert "horizon" in text and "hardMAE" in text
        assert "15m" in text and "60m" in text
        assert "best_epoch=0" in text

    def test_multiple_runs_grouped(self, traced_run, ci_dataset, tmp_path):
        path = tmp_path / "two.jsonl"
        bus = EventBus([JSONLSink(path)])
        run_experiment("linear", ci_dataset, FAST, seed=0, bus=bus)
        run_experiment("last-value", ci_dataset, FAST, seed=1, bus=bus)
        bus.close()
        text = summarize_trace(path)
        assert "2 run(s)" in text
        assert "[linear @ metr-la, seed 0]" in text
        assert "[last-value @ metr-la, seed 1]" in text

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert summarize_trace(path) == "(empty trace)"

    def test_validate_flags_broken_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "epoch_end"}\nnot json\n'
                        '{"event": "mystery", "t": 1.0}\n')
        problems = validate_trace(path)
        assert any("missing field" in p for p in problems)
        assert any("not valid JSON" in p for p in problems)
        assert any("unknown event kind" in p for p in problems)


class TestForeignEventKinds:
    """A trace written by a newer version must still read (minus the
    foreign events) — unknown kinds are reported problems, not errors."""

    def _mixed_trace(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"event": "batch_end", "epoch": 1, "batch": 1, '
            '"loss": 0.5, "t": 1.0}\n'
            '{"event": "from_the_future", "t": 2.0, "payload": 42}\n'
            '{"event": "batch_end", "epoch": 1, "batch": 2, '
            '"loss": 0.4, "t": 3.0}\n')
        return path

    def test_lenient_read_skips_and_reports(self, tmp_path):
        path = self._mixed_trace(tmp_path)
        problems = []
        events = read_trace(path, problems=problems)
        assert [e.kind for e in events] == ["batch_end", "batch_end"]
        assert problems == [
            "line 2: skipped unknown event kind 'from_the_future'"]

    def test_lenient_read_without_problems_list(self, tmp_path):
        events = read_trace(self._mixed_trace(tmp_path))
        assert len(events) == 2

    def test_strict_read_raises(self, tmp_path):
        path = self._mixed_trace(tmp_path)
        with pytest.raises(ValueError, match="unknown event kind "
                                             "'from_the_future'"):
            read_trace(path, strict=True)

    def test_retired_kinds_are_skipped(self, tmp_path):
        """Kinds older traces carry and this version no longer emits
        (cache telemetry, registry snapshots, per-suite bench records)
        read like foreign ones: skipped, with a note."""
        path = tmp_path / "old.jsonl"
        path.write_text("".join(
            json.dumps({"event": kind, "t": 1.0}) + "\n"
            for kind in ("cache_hit", "metrics", "kernel_bench")))
        problems = []
        assert read_trace(path, problems=problems) == []
        assert problems == [
            "line 1: skipped unknown event kind 'cache_hit'",
            "line 2: skipped unknown event kind 'metrics'",
            "line 3: skipped unknown event kind 'kernel_bench'"]

    def test_malformed_json_is_always_an_error(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"event": "batch_end"\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            read_trace(path, problems=[])


class TestMatrixTracing:
    def test_benchmark_matrix_writes_traces(self, tmp_path):
        from repro.core import BenchmarkMatrix
        matrix = BenchmarkMatrix(scale="ci", config=FAST, repeats=2,
                                 trace_dir=tmp_path)
        matrix.cell("last-value", "pemsd8")
        for seed in range(2):
            trace = tmp_path / f"last-value_pemsd8_seed{seed}.jsonl"
            manifest = tmp_path / f"last-value_pemsd8_seed{seed}.run.json"
            assert validate_trace(trace) == []
            assert json.loads(manifest.read_text())["seed"] == seed
