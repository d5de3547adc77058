"""BenchmarkMatrix orchestration and caching."""

import numpy as np
import pytest

from repro.core import BenchmarkMatrix, TrainingConfig
from repro.core import matrix as matrix_module

FAST = TrainingConfig(epochs=1, max_batches_per_epoch=2)


@pytest.fixture
def matrix():
    return BenchmarkMatrix(scale="ci", config=FAST, repeats=1)


class TestMatrix:
    def test_dataset_cached(self, matrix):
        a = matrix.dataset("pemsd8")
        b = matrix.dataset("pemsd8")
        assert a is b

    def test_cell_trains_and_caches(self, matrix):
        cell = matrix.cell("linear", "pemsd8")
        assert cell.model_name == "linear"
        assert matrix.cell("linear", "pemsd8") is cell

    def test_cells_order_matches_models(self, matrix):
        cells = matrix.cells(["linear", "last-value"], "pemsd8")
        assert [c.model_name for c in cells] == ["linear", "last-value"]

    def test_runs_available(self, matrix):
        runs = matrix.runs("linear", "pemsd8")
        assert len(runs) == 1
        assert runs[0].seed == 0

    def test_all_cells(self, matrix):
        matrix.cell("linear", "pemsd8")
        matrix.cell("last-value", "pemsd8")
        assert len(matrix.all_cells()) == 2


class TestDiskCache:
    def test_second_matrix_loads_from_disk(self, tmp_path):
        first = BenchmarkMatrix(scale="ci", config=FAST, repeats=1,
                                cache_dir=tmp_path)
        cell = first.cell("linear", "pemsd8")
        assert list(tmp_path.glob("*.json"))

        second = BenchmarkMatrix(scale="ci", config=FAST, repeats=1,
                                 cache_dir=tmp_path)
        restored = second.cell("linear", "pemsd8")
        assert (restored.full[15]["mae"].mean
                == pytest.approx(cell.full[15]["mae"].mean))

    def test_config_change_invalidates(self, tmp_path):
        first = BenchmarkMatrix(scale="ci", config=FAST, repeats=1,
                                cache_dir=tmp_path)
        first.cell("linear", "pemsd8")
        files_before = set(tmp_path.glob("*.json"))

        other_config = TrainingConfig(epochs=2, max_batches_per_epoch=2)
        second = BenchmarkMatrix(scale="ci", config=other_config, repeats=1,
                                 cache_dir=tmp_path)
        second.cell("linear", "pemsd8")
        files_after = set(tmp_path.glob("*.json"))
        assert len(files_after) == len(files_before) + 1

    def test_source_change_invalidates(self, tmp_path, monkeypatch):
        BenchmarkMatrix(scale="ci", config=FAST, repeats=1,
                        cache_dir=tmp_path).cell("linear", "pemsd8")
        files_before = set(tmp_path.glob("*.json"))

        def no_training(self, model, dataset):
            raise AssertionError("a cached cell was retrained")

        with monkeypatch.context() as patch:      # same sources: a hit
            patch.setattr(BenchmarkMatrix, "_train_cell", no_training)
            BenchmarkMatrix(scale="ci", config=FAST, repeats=1,
                            cache_dir=tmp_path).cell("linear", "pemsd8")

        monkeypatch.setattr(matrix_module, "_source_digest",
                            lambda: "0" * 64)     # edited sources: a miss
        BenchmarkMatrix(scale="ci", config=FAST, repeats=1,
                        cache_dir=tmp_path).cell("linear", "pemsd8")
        files_after = set(tmp_path.glob("*.json"))
        assert len(files_after) == len(files_before) + 1

    def test_runs_retrain_after_restore(self, tmp_path):
        first = BenchmarkMatrix(scale="ci", config=FAST, repeats=1,
                                cache_dir=tmp_path)
        first.cell("linear", "pemsd8")
        second = BenchmarkMatrix(scale="ci", config=FAST, repeats=1,
                                 cache_dir=tmp_path)
        second.cell("linear", "pemsd8")      # from disk; no raw runs
        runs = second.runs("linear", "pemsd8")
        assert len(runs) == 1
        assert np.isfinite(runs[0].evaluation.full[15].mae)
