"""Terminal visualisation: unicode sparklines.

The paper's figures are matplotlib plots; in a headless benchmark the same
information renders as unicode sparklines (for dashboards/logs), keeping
the repository free of plotting dependencies.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sparkline"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int | None = None) -> str:
    """Render a series as a unicode sparkline.

    ``width`` optionally downsamples (by averaging buckets) to a fixed
    number of characters.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("sparkline expects a 1-D series")
    if values.size == 0:
        return ""
    if not np.isfinite(values).any():
        return " " * (width if width is not None and values.size > width
                      else values.size)
    if width is not None and values.size > width:
        buckets = np.array_split(values, width)
        values = np.array([np.nanmean(b) for b in buckets])
    finite = values[np.isfinite(values)]
    low, high = finite.min(), finite.max()
    span = high - low
    if span == 0:
        return _SPARK_LEVELS[0] * values.size
    chars = []
    for value in values:
        if not np.isfinite(value):
            chars.append(" ")
            continue
        level = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)
