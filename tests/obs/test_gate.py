"""The perf-regression gate: record checks, tolerances, CLI exit codes."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import SUITES, load_bench_record, run
from repro.bench.gate import (DEFAULT_TOLERANCE, check_records,
                              find_baselines, run_and_check,
                              run_in_subprocess)
from repro.obs import EventBus, MemorySink

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def make_record(suite="kernels", mode="full", cases=None):
    cases = cases if cases is not None else {"conv": 4.0, "gru": 1.5}
    return {
        "suite": suite, "mode": mode, "numpy": "2.4.6",
        "timings": [
            {"name": name, "reference_seconds": speedup,
             "fast_seconds": 1.0, "speedup": speedup, "meta": {}}
            for name, speedup in cases.items()],
    }


class TestCheckRecords:
    def test_identical_records_pass(self):
        record = make_record()
        report = check_records(record, record)
        assert report.passed
        assert all(f.status == "ok" for f in report.findings)

    def test_decay_within_tolerance_is_ok(self):
        baseline = make_record(cases={"conv": 4.0})
        current = make_record(cases={"conv": 4.0 * (1 - DEFAULT_TOLERANCE)
                                     + 0.01})
        assert check_records(current, baseline).passed

    def test_regression_fails(self):
        baseline = make_record(cases={"conv": 4.0})
        current = make_record(cases={"conv": 2.0})
        report = check_records(current, baseline)
        assert not report.passed
        (finding,) = report.failures
        assert finding.status == "regression"
        assert finding.case == "conv"
        assert "below floor" in finding.detail

    def test_improvement_is_flagged_not_failed(self):
        baseline = make_record(cases={"conv": 2.0})
        current = make_record(cases={"conv": 4.0})
        report = check_records(current, baseline)
        assert report.passed
        assert report.findings[0].status == "improved"

    def test_tolerance_is_configurable(self):
        baseline = make_record(cases={"conv": 4.0})
        current = make_record(cases={"conv": 3.5})
        assert check_records(current, baseline).passed
        assert not check_records(current, baseline, tolerance=0.05).passed

    @pytest.mark.parametrize("tolerance", [-0.5, 1.0, 2.0])
    def test_tolerance_outside_unit_interval_rejected(self, tolerance):
        """At 1 or above every slowdown would pass; below 0 identical
        records would fail."""
        record = make_record()
        with pytest.raises(ValueError, match="tolerance"):
            check_records(record, record, tolerance=tolerance)

    def test_missing_case_fails(self):
        baseline = make_record(cases={"conv": 4.0, "gru": 1.5})
        current = make_record(cases={"conv": 4.0})
        report = check_records(current, baseline)
        (finding,) = report.failures
        assert finding.status == "missing_case"
        assert finding.case == "gru"

    def test_new_case_is_informational(self):
        baseline = make_record(cases={"conv": 4.0})
        current = make_record(cases={"conv": 4.0, "fresh": 9.0})
        report = check_records(current, baseline)
        assert report.passed
        assert any(f.status == "new_case" and f.case == "fresh"
                   for f in report.findings)

    def test_mode_mismatch_skips(self):
        report = check_records(make_record(mode="quick"),
                               make_record(mode="full"))
        assert report.skipped and report.passed
        assert "mode mismatch" in report.skipped
        assert "SKIPPED" in report.render()

    def test_suite_mismatch_skips(self):
        report = check_records(make_record(suite="optim"),
                               make_record(suite="kernels"))
        assert report.skipped and report.passed

    def test_overhead_case_uses_absolute_budget(self):
        def overhead_record(pct):
            record = make_record(suite="obs", cases={"traced": 0.99})
            record["timings"][0]["meta"] = {"overhead_pct": pct}
            return record

        baseline = overhead_record(1.5)
        assert check_records(overhead_record(1.9), baseline).passed
        report = check_records(overhead_record(2.5), baseline)
        (finding,) = report.failures
        assert finding.status == "over_budget"
        # a big speedup drop would normally regress; budget rules instead
        shrunk = overhead_record(1.9)
        shrunk["timings"][0]["speedup"] = 0.1
        assert check_records(shrunk, baseline).passed

    def test_render_table(self):
        report = check_records(make_record(cases={"conv": 2.0}),
                               make_record(cases={"conv": 4.0}))
        text = report.render()
        assert "bench check [kernels @ full]" in text
        assert "FAIL: 1 regression(s)" in text
        assert "conv" in text


class TestRecordIO:
    def test_load_valid_record(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(make_record()))
        assert load_bench_record(path)["suite"] == "kernels"

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"suite": "kernels"}))
        with pytest.raises(ValueError, match="missing key"):
            load_bench_record(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("not json")
        with pytest.raises(ValueError, match="cannot read"):
            load_bench_record(path)

    def test_find_baselines(self, tmp_path):
        (tmp_path / "BENCH_kernels.json").write_text("{}")
        (tmp_path / "BENCH_obs.json").write_text("{}")
        found = find_baselines(tmp_path)
        assert set(found) == {"kernels", "obs"}

    def test_repo_ships_all_four_baselines(self):
        found = find_baselines(REPO_ROOT)
        assert set(found) == set(SUITES)
        for suite, path in found.items():
            record = load_bench_record(path)
            assert record["suite"] == suite
            assert record["mode"] == "full"
            assert record["timings"]


class TestCommittedBaselines:
    """Tier-1 smoke for the gate itself: the committed baselines must
    self-check clean, and a doctored regression must exit non-zero."""

    def test_committed_baselines_pass_self_check(self):
        for suite, path in find_baselines(REPO_ROOT).items():
            record = load_bench_record(path)
            report = check_records(record, record)
            assert report.passed, f"{suite}: {report.render()}"
            assert not report.skipped

    def test_committed_obs_overhead_within_budget(self):
        record = load_bench_record(REPO_ROOT / "BENCH_obs.json")
        (case,) = [t for t in record["timings"]
                   if t["name"] == "traced_train_step"]
        assert case["meta"]["overhead_pct"] <= 2.0

    def test_cli_passes_on_committed_baseline(self, capsys):
        from repro.cli import main

        baseline = str(REPO_ROOT / "BENCH_kernels.json")
        rc = main(["bench", "check", "--current", baseline,
                   "--baseline", baseline])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_cli_fails_on_doctored_regression(self, tmp_path, capsys):
        from repro.cli import main

        baseline_path = REPO_ROOT / "BENCH_kernels.json"
        doctored = copy.deepcopy(load_bench_record(baseline_path))
        worst = doctored["timings"][0]
        worst["speedup"] = worst["speedup"] / 10.0
        doctored_path = tmp_path / "BENCH_kernels.json"
        doctored_path.write_text(json.dumps(doctored))

        rc = main(["bench", "check", "--current", str(doctored_path),
                   "--baseline", str(baseline_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "regression" in out

    @pytest.mark.parametrize("tolerance", ["2", "-0.5"])
    def test_cli_rejects_out_of_range_tolerance(self, tolerance, capsys):
        from repro.cli import main

        baseline = str(REPO_ROOT / "BENCH_kernels.json")
        rc = main(["bench", "check", "--current", baseline,
                   "--baseline", baseline, "--tolerance", tolerance])
        assert rc == 2
        assert "tolerance must be in [0, 1)" in capsys.readouterr().err

    def test_cli_rejects_half_specified_comparison(self, capsys):
        from repro.cli import main

        rc = main(["bench", "check",
                   "--current", str(REPO_ROOT / "BENCH_kernels.json")])
        assert rc == 2

    def test_cli_errors_on_missing_baseline_dir(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["bench", "check", "--root", str(tmp_path)])
        assert rc == 2
        assert "no BENCH_" in capsys.readouterr().err


class TestRunAndCheck:
    def test_fresh_obs_quick_run_skips_against_full_baseline(self):
        """run_and_check with an explicit quick mode produces a skipped
        (mode-mismatch) report rather than a bogus verdict."""
        report = run_and_check("obs", REPO_ROOT / "BENCH_obs.json",
                               mode="quick", bus=EventBus([MemorySink()]))
        assert report.skipped and report.passed

    def test_suite_runs_in_a_fresh_interpreter(self, monkeypatch):
        """The record comes from a child process — the in-process runner
        is never called — and its events reach the caller's bus."""
        import repro.bench

        def refuse(*args, **kwargs):
            raise AssertionError("suite ran in the checking process")

        monkeypatch.setattr(repro.bench, "run", refuse)
        sink = MemorySink()
        report = run_and_check("optim", REPO_ROOT / "BENCH_optim.json",
                               mode="quick", bus=EventBus([sink]))
        assert report.skipped and report.passed
        names = [event.name for event in sink.events]
        assert names == list(SUITES["optim"].cases)

    def test_failed_child_raises_with_its_stderr(self):
        with pytest.raises(RuntimeError, match="invalid choice"):
            run_in_subprocess("optim", "no-such-mode")

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run("nope", "quick")
