"""Quick-mode smoke tests for every registered bench suite.

Tier-1 guards against a suite rotting: the quick preset must run end to
end through ``repro bench <suite>``, print one ``[bench]`` line per case,
write a well-formed ``BENCH_<suite>.json`` record and trace one
``bench_result`` event per case.  Speedup *floors* are asserted only by
the full-size, opt-in ``benchmarks/bench_*.py`` (tiny quick-mode shapes
are timing noise).  Each suite's expectations are inputs in
:data:`SMOKE`; a newly registered suite fails here until it has some.
"""

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

from repro.bench import (SUITES, Timing, load_bench_record, render_timings,
                         run, timings_to_record, write_bench_json)
from repro.cli import main
from repro.obs import BenchResult, EventBus, MemorySink, read_trace

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@dataclass(eq=False)
class Satisfies:
    """Compares equal to any value that passes ``test``."""

    test: Callable

    def __eq__(self, other):
        return self.test(other)


POSITIVE = Satisfies(lambda value: value > 0)
NUMBER = Satisfies(lambda value: isinstance(value, (int, float)))


@dataclass
class Smoke:
    """Per-suite smoke inputs: the cases to run (in suite order), the CLI
    banner prefix, and expected ``meta`` entries per case."""

    cases: list[str]
    banner: str
    meta: dict[str, dict] = field(default_factory=dict)


_OPTIM_CASES = ["adam_step", "clip_grad_norm", "zero_grad"]

SMOKE = {
    "kernels": Smoke(
        cases=["conv2d_backward", "col2im", "split_backward",
               "einsum_graph_conv"],
        banner="Kernel benchmark suite",
        meta={"conv2d_backward": {"kernel": [1, 3]},
              "col2im": {"kernel": [1, 3]},
              "split_backward": {"sections": 2},
              "einsum_graph_conv": {"subscripts": "nm,bcmt->bcnt"}}),
    "optim": Smoke(
        cases=_OPTIM_CASES,
        banner="Optimizer benchmark suite",
        meta={case: {"parameters": 60} for case in _OPTIM_CASES}),
    "data": Smoke(
        cases=["dataset_load", "window_build", "train_epoch",
               "resident_memory"],
        banner="Data pipeline benchmark suite",
        meta={"dataset_load": {"dataset": "metr-la", "scale": "ci"},
              "resident_memory": {"eager_peak_bytes": POSITIVE,
                                  "lazy_peak_bytes": POSITIVE}}),
    "obs": Smoke(
        cases=["traced_train_step", "span_noop_vs_recorded"],
        banner="Observability benchmark suite",
        meta={"traced_train_step": {"model": "stgcn",
                                    "overhead_pct": NUMBER},
              "span_noop_vs_recorded": {
                  "spans": SUITES["obs"].modes["quick"]["spans"],
                  "noop_ns_per_span": POSITIVE,
                  "recorded_ns_per_span": POSITIVE}}),
}


@pytest.fixture(scope="module", params=list(SUITES))
def cli_run(request, tmp_path_factory):
    """One ``repro bench <suite> --mode quick`` run per suite, with the
    smoke cases split over two ``--case`` flags (both must run)."""
    suite = request.param
    cases = SMOKE[suite].cases
    out_dir = tmp_path_factory.mktemp(f"bench-{suite}")
    json_path, trace_path = out_dir / "bench.json", out_dir / "bench.jsonl"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["bench", suite, "--mode", "quick",
                     "--case", cases[0], "--case", *cases[1:],
                     "--json", str(json_path), "--trace", str(trace_path)])
    return suite, code, stdout.getvalue(), json_path, trace_path


class TestBenchCLI:
    def test_runs_every_requested_case(self, cli_run):
        suite, code, out, _, _ = cli_run
        assert code == 0
        assert out.startswith(f"{SMOKE[suite].banner} (mode=quick) — ")
        for case in SUITES[suite].cases:
            assert (f"[bench] {case}:" in out) == (
                case in SMOKE[suite].cases)
        table = out[out.index("\ncase "):]
        assert table.split()[:4] == ["case", "reference", "fast", "speedup"]
        assert [line.split()[0] for line in table.splitlines()[3:]
                if line and not line.startswith(("Results", "Events"))
                ] == SMOKE[suite].cases

    def test_json_record(self, cli_run):
        suite, _, _, json_path, _ = cli_run
        record = load_bench_record(json_path)
        assert json_path.read_text() == json.dumps(
            record, indent=2, sort_keys=True) + "\n"
        assert set(record) == {"suite", "mode", "numpy", "timings"}
        assert record["suite"] == suite
        assert record["mode"] == "quick"
        assert [t["name"] for t in record["timings"]] == SMOKE[suite].cases
        for timing in record["timings"]:
            assert timing["reference_seconds"] > 0
            assert timing["fast_seconds"] > 0
            assert timing["speedup"] > 0
            assert timing["meta"]

    def test_trace_holds_one_bench_result_per_case(self, cli_run):
        suite, _, _, json_path, trace_path = cli_run
        events = read_trace(trace_path, strict=True)
        assert all(isinstance(e, BenchResult) for e in events)
        assert [e.name for e in events] == SMOKE[suite].cases
        assert {(e.suite, e.mode) for e in events} == {(suite, "quick")}
        recorded = load_bench_record(json_path)["timings"]
        for event, timing in zip(events, recorded):
            assert event.meta == timing["meta"]
            assert round(event.speedup, 2) == timing["speedup"]
            for key, expected in SMOKE[suite].meta.get(event.name,
                                                       {}).items():
                assert event.meta[key] == expected, (event.name, key)

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_unknown_case_exits_2(self, suite, capsys):
        assert main(["bench", suite, "--mode", "quick",
                     "--case", "nope"]) == 2
        assert "unknown bench case" in capsys.readouterr().err


@pytest.mark.parametrize("suite", list(SUITES))
class TestRun:
    def test_events_match_timings_in_suite_order(self, suite):
        requested = SMOKE[suite].cases[-2:]
        sink = MemorySink()
        timings = run(suite, mode="quick", bus=EventBus([sink]),
                      cases=requested[::-1])
        assert [t.name for t in timings] == requested
        events = sink.of_kind("bench_result")
        assert len(events) == len(timings)
        for event, timing in zip(events, timings):
            assert (event.suite, event.name, event.mode) == (
                suite, timing.name, "quick")
            assert event.reference_seconds == timing.reference_seconds
            assert event.fast_seconds == timing.fast_seconds
            assert event.speedup == timing.speedup
            assert event.meta == timing.meta

    def test_unknown_mode_raises(self, suite):
        with pytest.raises(ValueError, match="unknown bench mode"):
            run(suite, mode="warp")

    def test_unknown_case_raises(self, suite):
        with pytest.raises(ValueError, match="unknown bench case"):
            run(suite, mode="quick", cases=["nope"])

    def test_modes_cover_quick_and_full(self, suite):
        assert {"quick", "full"} <= set(SUITES[suite].modes)

    def test_full_cases_match_committed_baseline(self, suite):
        """Every case is recorded in ``BENCH_<suite>.json``, in order, so
        a case added without a baseline (or dropped) fails here."""
        record = load_bench_record(REPO_ROOT / f"BENCH_{suite}.json")
        assert record["mode"] == "full"
        assert list(SUITES[suite].cases) == [
            t["name"] for t in record["timings"]]


def _synthetic_timings(suite: str) -> list[Timing]:
    """Fixed timings for the suite's smoke cases; the record format needs
    no clock."""
    return [Timing(name=case, reference_seconds=0.002 * (i + 1),
                   fast_seconds=0.001, meta={"index": i})
            for i, case in enumerate(SMOKE[suite].cases)]


@pytest.mark.parametrize("suite", list(SUITES))
class TestRecords:
    def test_record_structure_and_json_roundtrip(self, suite, tmp_path):
        timings = _synthetic_timings(suite)
        record = timings_to_record(timings, mode="quick", suite=suite)
        assert record["suite"] == suite
        assert record["mode"] == "quick"
        assert [t["name"] for t in record["timings"]] == SMOKE[suite].cases
        assert [t["speedup"] for t in record["timings"]] == [
            2.0 * (i + 1) for i in range(len(timings))]
        path = tmp_path / "bench.json"
        write_bench_json(timings, path, mode="quick", suite=suite)
        assert load_bench_record(path) == json.loads(json.dumps(record))

    def test_render_timings_table(self, suite):
        timings = _synthetic_timings(suite)
        lines = render_timings(timings).splitlines()
        assert lines[0].split() == ["case", "reference", "fast", "speedup"]
        assert [line.split()[0] for line in lines[2:]] == SMOKE[suite].cases
        assert lines[2].split()[1:] == ["2.00ms", "1.00ms", "2.00x"]


def test_timing_speedup():
    assert Timing(name="x", reference_seconds=2.0,
                  fast_seconds=0.5).speedup == 4.0
    assert Timing(name="x", reference_seconds=1.0,
                  fast_seconds=0.0).speedup == float("inf")
