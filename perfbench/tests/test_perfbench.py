"""Self-tests of the benchmark.

    python -m pytest perfbench/tests -q      # from the repository root
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench  # noqa: E402
from repro.datasets import SupervisedSplit  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

TINY = bench.Workload("tiny", "metr-la", "ci", bench.PAPER_MODELS,
                      batch_size=32, warmup_steps=1, timed_steps=4,
                      setup_repeats=2, reload_repeats=2, test_windows=16,
                      val_windows=16)
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_nan_in_a_copied_batch_counts_as_failed(tmp_path, monkeypatch):
    gather = SupervisedSplit.batch
    poisoned = []

    def batch(self, indices, target_scaler=None):
        x, y, start = gather(self, indices, target_scaler=target_scaler)
        if (not poisoned and target_scaler is not None
                and len(indices) == TINY.batch_size):   # a training batch
            x = x.copy()
            x[0, 0, 0, 0] = np.nan
            poisoned.append(True)
        return x, y, start

    monkeypatch.setattr(SupervisedSplit, "batch", batch)
    result = bench.run(dataclasses.replace(TINY, models=("linear",)), seed=0,
                       seconds=0, trace=False, work_dir=tmp_path)
    assert poisoned
    assert result.failed > 0
    assert result.metrics["failed_frac"].value > 0
    assert not result.correct


def test_traced_run_keeps_numerics_and_reports_every_layer(tmp_path):
    plain = bench.run(TINY, seed=3, seconds=0, trace=False,
                      work_dir=tmp_path / "plain")
    traced = bench.run(TINY, seed=3, seconds=0, trace=True,
                       work_dir=tmp_path / "traced")
    assert plain.correct and traced.correct, plain.problems + traced.problems
    maes = {name: m["test_mae"] for name, m in plain.models.items()}
    assert maes == {name: m["test_mae"] for name, m in traced.models.items()}
    assert set(traced.layers) == {m["name"] for m in CONFIG["per_layer"]}
    assert {m["name"] for m in CONFIG["end_to_end"]} <= set(plain.metrics)
    assert all(m.value > 0 for m in plain.metrics.values()
               if m.unit != "ratio")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *CONFIG["command"][1:], "--workload", "table3-ci",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.begin("a")
    inner = tracer.begin("b")
    tracer.end(inner)
    tracer.end(outer)
    tracer.enclose("step", tracer.spans[0][1] - 1.0, tracer.spans[0][2], 0)
    own = self_times(tracer.spans)
    b = tracer.spans[1][2] - tracer.spans[1][1]
    a = tracer.spans[0][2] - tracer.spans[0][1]
    assert own[1] == b
    assert abs(own[0] - (a - b)) < 1e-12
    assert abs(own[2] - 1.0) < 1e-12           # the step adopted span a
