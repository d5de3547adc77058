"""Op census profiler for the autograd engine.

Explains Table III-style cost differences *mechanistically*: wrap a
forward/backward region in :func:`profile` and get, per op type, the number
of graph nodes created and the number of output elements produced — e.g.
DCRNN's cost shows up as thousands of small matmul/sigmoid nodes from its
24 sequential GRU steps, while Graph-WaveNet concentrates work in a few
large conv2d nodes.  The report also records the block's wall-clock time
and, from ``getrusage``, the minor page faults and kernel (``sys``) time
it paid: a step that re-faults freshly mapped buffers shows up there, not
in the census (see :mod:`repro.nn.heap`).

Element counts are a workload proxy, not a timer: per-op wall time cannot
be attributed exactly without instrumenting every kernel, but node counts ×
sizes explain *why* one architecture is slower (graph depth vs op width).
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

from .tensor import Tensor

try:
    import resource
except ImportError:          # not on Windows
    resource = None

__all__ = ["OpStats", "ProfileReport", "profile"]


@dataclass
class OpStats:
    """Aggregate statistics for one op type."""

    count: int = 0
    elements: int = 0      # total output elements produced by this op


@dataclass
class ProfileReport:
    """Result of a profiling session."""

    ops: dict[str, OpStats] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: ``getrusage`` deltas over the block; ``None`` without ``resource``.
    minor_faults: int | None = None
    system_seconds: float | None = None

    @property
    def total_nodes(self) -> int:
        return sum(s.count for s in self.ops.values())

    @property
    def total_elements(self) -> int:
        return sum(s.elements for s in self.ops.values())

    def top(self, n: int = 10, by: str = "elements") -> list[tuple[str, OpStats]]:
        """Ops ordered by ``elements`` (default) or ``count``."""
        if by not in ("elements", "count"):
            raise ValueError(f"unknown sort key {by!r}")
        ranked = sorted(self.ops.items(),
                        key=lambda kv: -getattr(kv[1], by))
        return ranked[:n]

    def render(self, n: int = 10) -> str:
        header = f"wall time: {self.wall_seconds:.4f}s"
        if self.minor_faults is not None:
            header += (f" (sys {self.system_seconds:.4f}s, "
                       f"{self.minor_faults:,} minor faults)")
        lines = [f"{header}, {self.total_nodes} graph nodes, "
                 f"{self.total_elements:,} output elements"]
        lines.append(f"{'op':<14} {'nodes':>8} {'elements':>14} {'share':>7}")
        total = self.total_elements or 1
        for name, stats in self.top(n):
            lines.append(f"{name:<14} {stats.count:>8} "
                         f"{stats.elements:>14,} "
                         f"{stats.elements / total * 100:>6.1f}%")
        return "\n".join(lines)


def _usage() -> tuple[int, float] | None:
    """This process's (minor faults, system seconds) so far."""
    if resource is None:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_stime


@contextlib.contextmanager
def profile():
    """Record every Tensor op created inside the block.

    Yields a :class:`ProfileReport` populated live; ``wall_seconds``,
    ``minor_faults`` and ``system_seconds`` are final once the block
    exits.  Works under ``no_grad`` too (construction still flows through
    ``Tensor._make``).
    """
    report = ProfileReport(ops=defaultdict(OpStats))
    raw = Tensor.__dict__["_make"]
    original_make = raw.__func__ if isinstance(raw, staticmethod) else raw
    usage = _usage()
    start = time.perf_counter()

    def counting_make(data, parents, backward, op):
        result = original_make(data, parents, backward, op)
        stats = report.ops[op or "unnamed"]
        stats.count += 1
        stats.elements += result.data.size
        return result

    Tensor._make = staticmethod(counting_make)
    try:
        yield report
    finally:
        Tensor._make = staticmethod(original_make)
        report.wall_seconds = time.perf_counter() - start
        if usage is not None:
            faults, system = _usage()
            report.minor_faults = faults - usage[0]
            report.system_seconds = system - usage[1]
        report.ops = dict(report.ops)
