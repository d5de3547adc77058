"""Statistical comparison utilities."""

import numpy as np
import pytest

from repro.core import compare_models, welch_test
from .test_results import make_run


class TestWelchTest:
    def test_identical_samples_not_significant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 30)
        t, p = welch_test(a, a)
        assert p > 0.9

    def test_clearly_different_samples_significant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.1, 30)
        b = rng.normal(5, 0.1, 30)
        t, p = welch_test(a, b)
        assert p < 1e-6
        assert abs(t) > 10

    def test_too_few_samples(self):
        t, p = welch_test(np.array([1.0]), np.array([2.0, 3.0]))
        assert np.isnan(t)
        assert p == 1.0

    def test_both_constant_equal(self):
        t, p = welch_test(np.array([2.0, 2.0]), np.array([2.0, 2.0]))
        assert p == 1.0

    def test_both_constant_different(self):
        t, p = welch_test(np.array([2.0, 2.0]), np.array([3.0, 3.0]))
        assert p == 0.0


class TestCompareModels:
    def _runs(self, name, maes):
        return [make_run(model=name, seed=i, mae15=m)
                for i, m in enumerate(maes)]

    def test_better_model_identified(self):
        a = self._runs("good", [1.0, 1.1, 0.9])
        b = self._runs("bad", [3.0, 3.2, 2.8])
        comparison = compare_models(a, b)
        assert comparison.better == "good"
        assert comparison.significant()

    def test_means_recorded(self):
        a = self._runs("a", [2.0, 4.0])
        b = self._runs("b", [3.0, 5.0])
        comparison = compare_models(a, b)
        # full[15] mae = mae15 + 0.5 in make_run
        assert comparison.mean_a == pytest.approx(3.5)
        assert comparison.mean_b == pytest.approx(4.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compare_models([], self._runs("b", [1.0]))

    def test_horizon_selection(self):
        a = self._runs("a", [1.0, 1.2])
        b = self._runs("b", [1.0, 1.2])
        comparison = compare_models(a, b, minutes=60)
        assert comparison.mean_a == comparison.mean_b
