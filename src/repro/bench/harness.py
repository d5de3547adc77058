"""What every bench suite shares: the suite spec, timers, timings, records.

A suite is a :class:`Suite`: named workload presets (``modes``) plus an
ordered mapping of case name to ``make(sizes, rng) -> (reference_seconds,
fast_seconds, meta)``.  :func:`repro.bench.run` drives any registered
suite; this module holds the pieces the suites themselves import —
:func:`best_of` / :func:`interleaved_best` for timing, :class:`Timing`
for one case's result — and the ``BENCH_<suite>.json`` record format
(:func:`timings_to_record`, :func:`write_bench_json`,
:func:`load_bench_record`, :func:`render_timings`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["Suite", "Timing", "best_of", "interleaved_best",
           "timings_to_record", "write_bench_json", "load_bench_record",
           "render_timings"]

#: One case: ``make(sizes, rng) -> (reference_seconds, fast_seconds, meta)``.
Case = Callable[[dict, np.random.Generator], tuple[float, float, dict]]


@dataclass(frozen=True)
class Suite:
    """One registered bench suite.

    ``banner`` is the CLI heading, formatted with ``mode``; ``help`` is
    the ``repro bench <name>`` help text.  Every case of a run gets a
    fresh ``numpy.random.default_rng(seed)``.
    """

    name: str
    modes: dict[str, dict]
    cases: dict[str, Case]
    banner: str
    help: str
    seed: int = 0


@dataclass
class Timing:
    """Reference vs. fast wall time for one benchmark case."""

    name: str
    reference_seconds: float
    fast_seconds: float
    meta: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Reference time over fast time (>1 means the fast path wins)."""
        if self.fast_seconds <= 0:
            return float("inf")
        return self.reference_seconds / self.fast_seconds


def best_of(step: Callable[[], Any], repeats: int,
            warmup: bool = True) -> float:
    """Minimum wall time of ``step`` over ``repeats`` runs."""
    if warmup:
        step()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - start)
    return best


def interleaved_best(reference_step: Callable[[], Any],
                     fast_step: Callable[[], Any],
                     repeats: int) -> tuple[float, float]:
    """Best-of timings for two steps, alternating per round.

    Measuring all reference rounds and then all fast rounds bakes slow
    system drift (cache warmth, thermal state) into the ratio; for
    percent-level comparisons like the tracing-overhead budget the two
    sides must sample the same conditions, so alternate them.
    """
    reference_step()
    fast_step()
    reference_best = fast_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        reference_step()
        reference_best = min(reference_best, time.perf_counter() - start)
        start = time.perf_counter()
        fast_step()
        fast_best = min(fast_best, time.perf_counter() - start)
    return reference_best, fast_best


def timings_to_record(timings: list[Timing], mode: str,
                      suite: str) -> dict[str, Any]:
    """JSON-safe record of one suite run (the ``BENCH_<suite>.json`` body)."""
    return {
        "suite": suite,
        "mode": mode,
        "numpy": np.__version__,
        "timings": [
            {"name": t.name,
             "reference_seconds": round(t.reference_seconds, 6),
             "fast_seconds": round(t.fast_seconds, 6),
             "speedup": round(t.speedup, 2),
             "meta": t.meta}
            for t in timings
        ],
    }


def write_bench_json(timings: list[Timing], path: str | Path,
                     mode: str, suite: str) -> None:
    """Write :func:`timings_to_record` to ``path`` (pretty-printed)."""
    record = timings_to_record(timings, mode, suite=suite)
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_bench_record(path: str | Path) -> dict[str, Any]:
    """Load and shape-check one ``BENCH_*.json`` record."""
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read bench record {path}: {exc}") from exc
    for key in ("suite", "mode", "timings"):
        if key not in record:
            raise ValueError(f"bench record {path} missing key {key!r}")
    if not isinstance(record["timings"], list):
        raise ValueError(f"bench record {path}: 'timings' must be a list")
    return record


def render_timings(timings: list[Timing]) -> str:
    """Fixed-width table of the suite results for terminal output."""
    header = (f"{'case':<26} {'reference':>12} {'fast':>12} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for t in timings:
        lines.append(f"{t.name:<26} {t.reference_seconds * 1e3:>10.2f}ms "
                     f"{t.fast_seconds * 1e3:>10.2f}ms {t.speedup:>7.2f}x")
    return "\n".join(lines)
