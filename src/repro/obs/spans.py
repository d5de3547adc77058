"""Hierarchical span tracing over the event bus.

:func:`span` is a context manager that times a named region and, on
exit, publishes a :class:`repro.obs.events.SpanEvent` to the bus.  Spans
nest: the open span is tracked in a :mod:`contextvars` variable, so
children record their parent's id automatically and code running in a
fresh thread (or a copied context) starts a new root rather than
attaching to an unrelated span.  Durations come from
:func:`time.perf_counter` (monotonic); the wall-clock open time travels
alongside for timeline export.

The whole stack is instrumented with a small, stable taxonomy —
``experiment/run`` > ``train/fit`` > ``train/epoch`` > ``train/batch`` >
``train/forward|backward|optim``, plus ``data/*`` for loading/gathering
and ``kernel/*`` for the convolution dispatch seam — and all of it costs
(nearly) nothing when nobody listens: when the target bus has no sinks,
:func:`span` returns a shared no-op object and does no clock reads, no
allocation, and no emission.  ``repro bench obs`` holds that overhead to
≤2% of an untraced training step.

Reading traces back, :class:`SpanTree` reconstructs the hierarchy from
any event stream (spans arrive innermost-first because children close
before parents; orphans from crashed runs are promoted to roots), and
:func:`span_report` renders a per-label self-time/total-time table —
the "where does an epoch actually go?" view.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from .events import Event, EventBus, SpanEvent, get_bus

__all__ = [
    "Span", "span", "disable_spans",
    "SpanNode", "SpanTree", "span_report",
]

_CURRENT: ContextVar["Span | None"] = ContextVar(
    "repro_obs_current_span", default=None)
_IDS = itertools.count(1)
_DISABLED = 0          # nesting depth of disable_spans() scopes


class _NullSpan:
    """Shared no-op stand-in handed out when tracing is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return "<span disabled>"


_NULL = _NullSpan()


class Span:
    """One *open* span: label, parent linkage, and attached attributes.

    Created by :func:`span`; not instantiated directly.  ``set(**attrs)``
    merges attributes into the span before it closes (e.g. a cache probe
    recording whether it hit).
    """

    __slots__ = ("label", "span_id", "parent_id", "depth", "attrs")

    def __init__(self, label: str, parent: "Span | None",
                 attrs: dict[str, Any]):
        self.label = label
        self.span_id = f"{next(_IDS):x}"
        self.parent_id = parent.span_id if parent is not None else ""
        self.depth = parent.depth + 1 if parent is not None else 0
        self.attrs = attrs

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return f"<Span {self.label} id={self.span_id}>"


class span:
    """Open a nested, timed span around a ``with`` block.

    ::

        with span("train/batch", batch=3, size=32) as sp:
            ...
            sp.set(loss=float(loss.item()))

    ``bus`` defaults to the ambient bus (:func:`repro.obs.get_bus`).  When
    that bus has no sinks — or tracing is suppressed via
    :func:`disable_spans` — the block runs untraced at near-zero cost and
    ``as sp`` binds a shared no-op object whose ``set`` does nothing.

    On exit the completed span is emitted as a ``span`` event.  If the
    block raised, the span's ``status`` is ``"error"`` and ``error``
    summarises the exception; the exception always propagates, so every
    enclosing span unwinds (and marks itself ``error``) in child-first
    order.
    """

    __slots__ = ("_label", "_bus", "_attrs", "_span", "_token",
                 "_t0", "_t_wall")

    def __init__(self, label: str, *, bus: EventBus | None = None,
                 **attrs: Any):
        self._label = label
        self._bus = bus
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span | _NullSpan:
        bus = self._bus if self._bus is not None else get_bus()
        if _DISABLED or not bus.has_sinks:
            return _NULL
        self._bus = bus
        self._span = Span(self._label, _CURRENT.get(), dict(self._attrs))
        self._token = _CURRENT.set(self._span)
        self._t_wall = time.time()
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        sp = self._span
        if sp is None:                       # no-op path
            return False
        seconds = time.perf_counter() - self._t0
        _CURRENT.reset(self._token)
        self._span = None
        if exc_type is None:
            status, error = "ok", ""
        else:
            status = "error"
            error = f"{exc_type.__name__}: {exc}"
        self._bus.emit(SpanEvent(
            label=sp.label, span_id=sp.span_id, parent_id=sp.parent_id,
            t_start=self._t_wall, seconds=seconds, status=status,
            error=error, depth=sp.depth, thread=threading.get_ident(),
            attrs=sp.attrs))
        return False                          # never swallow exceptions


@contextlib.contextmanager
def disable_spans():
    """Force :func:`span` onto its no-op path inside the block.

    Used by the overhead benchmark (``repro bench obs``) to measure a
    genuinely untraced training step even while sinks are attached, and
    available to callers who want a hot region excluded from a trace.
    Nests; re-enables when the outermost scope exits.
    """
    global _DISABLED
    _DISABLED += 1
    try:
        yield
    finally:
        _DISABLED -= 1


# --------------------------------------------------------------------- #
# Reconstruction: SpanTree + report
# --------------------------------------------------------------------- #
@dataclass
class SpanNode:
    """One reconstructed span plus its children (see :class:`SpanTree`)."""

    event: SpanEvent
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def label(self) -> str:
        """The span's label (e.g. ``"train/epoch"``)."""
        return self.event.label

    @property
    def seconds(self) -> float:
        """Total (inclusive) duration of the span."""
        return self.event.seconds

    @property
    def self_seconds(self) -> float:
        """Duration not accounted for by recorded children (clamped ≥0)."""
        return max(0.0, self.event.seconds
                   - sum(c.event.seconds for c in self.children))


class SpanTree:
    """The span hierarchy of a trace, rebuilt from ``span`` events.

    Accepts any iterable of events (other kinds are ignored).  Because a
    JSONL trace lists spans innermost-first — children close, and are
    written, before their parents — a crashed run's prefix is missing the
    *outer* spans; their completed children are promoted to roots, so a
    partial trace still yields a valid (forest-shaped) tree.
    """

    def __init__(self, events: Iterable[Event]):
        spans = [e for e in events if isinstance(e, SpanEvent)]
        self.nodes: dict[str, SpanNode] = {
            e.span_id: SpanNode(e) for e in spans}
        self.roots: list[SpanNode] = []
        for e in spans:
            node = self.nodes[e.span_id]
            parent = self.nodes.get(e.parent_id) if e.parent_id else None
            if parent is None:
                self.roots.append(node)
            else:
                parent.children.append(node)
        for node in self.nodes.values():
            node.children.sort(key=lambda n: n.event.t_start)
        self.roots.sort(key=lambda n: n.event.t_start)

    @classmethod
    def from_trace(cls, path: str | Path) -> "SpanTree":
        """Build a tree from a JSONL trace file (unknown kinds skipped)."""
        from .trace import read_trace     # lazy: trace imports events only
        return cls(read_trace(path))

    def __len__(self) -> int:
        return len(self.nodes)

    def walk(self) -> Iterator[tuple[SpanNode, int]]:
        """Yield ``(node, depth)`` depth-first over every root."""
        stack = [(node, 0) for node in reversed(self.roots)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            stack.extend((child, depth + 1)
                         for child in reversed(node.children))

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-label totals: count, total/self seconds, error count."""
        table: dict[str, dict[str, float]] = {}
        for node, _ in self.walk():
            row = table.setdefault(node.label, {
                "count": 0, "total_seconds": 0.0,
                "self_seconds": 0.0, "errors": 0})
            row["count"] += 1
            row["total_seconds"] += node.seconds
            row["self_seconds"] += node.self_seconds
            row["errors"] += 1 if node.event.status != "ok" else 0
        return table


def span_report(source: str | Path | Iterable[Event] | SpanTree,
                style: str = "plain") -> str:
    """Self-time/total-time table per span label, heaviest self-time first.

    ``source`` may be a trace path, an iterable of events, or a prebuilt
    :class:`SpanTree`.  Returns ``"(no spans recorded)"`` for spanless
    input.  ``style`` is forwarded to :func:`repro.core.report.format_table`
    (``plain``, ``markdown``, or ``csv``).
    """
    from ..core.report import format_table    # lazy: avoids an import cycle

    if isinstance(source, SpanTree):
        tree = source
    elif isinstance(source, (str, Path)):
        tree = SpanTree.from_trace(source)
    else:
        tree = SpanTree(source)
    if not tree.nodes:
        return "(no spans recorded)"
    table = tree.aggregate()
    order = sorted(table.items(),
                   key=lambda kv: kv[1]["self_seconds"], reverse=True)
    rows = []
    for label, row in order:
        count = int(row["count"])
        rows.append([
            label, str(count),
            f"{row['self_seconds']:.4f}", f"{row['total_seconds']:.4f}",
            f"{row['total_seconds'] / count * 1e3:.2f}",
            str(int(row["errors"])),
        ])
    header = f"{len(tree.nodes)} spans, {len(tree.roots)} root(s)"
    return header + "\n" + format_table(
        ["span", "count", "self s", "total s", "avg ms", "errors"],
        rows, style=style)
