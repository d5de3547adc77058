"""Terminal visualisation helpers."""

import numpy as np
import pytest

from repro.core import sparkline


class TestSparkline:
    def test_monotone_series_monotone_glyphs(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert line == "▁▂▃▄▅▆▇█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_downsampling(self):
        line = sparkline(np.arange(100), width=10)
        assert len(line) == 10
        assert line[0] == "▁" and line[-1] == "█"

    def test_short_series_not_padded(self):
        assert len(sparkline([1, 2], width=10)) == 2

    def test_nan_rendered_as_space(self):
        line = sparkline([1.0, float("nan"), 3.0])
        assert line[1] == " "

    def test_all_nan(self):
        assert sparkline([float("nan")] * 3) == "   "

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            sparkline(np.zeros((2, 2)))
