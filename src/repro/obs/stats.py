"""A metrics registry of named counters.

Where :mod:`repro.obs.spans` answers "what happened, in order, and how
long did each piece take", a counter answers "how many" for a reader
that needs the number without a trace.  The stack keeps one such pair:
``data/cache_hits`` / ``data/cache_misses``, counted by
:func:`repro.datasets.load_dataset`, whose hit count the Table III
harness reads to confirm that a reload was served from the cache.

There is one ambient registry (:func:`get_registry`);
:func:`registry_scope` swaps in a fresh one for a ``with`` block so tests
and benchmark runs observe only their own activity.
"""

from __future__ import annotations

import contextlib

__all__ = ["StatCounter", "MetricsRegistry", "get_registry",
           "registry_scope"]


class StatCounter:
    """A named monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be ≥ 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc({amount}))")
        self.value += amount


class MetricsRegistry:
    """Create-or-fetch registry of named counters.

    :meth:`counter` returns the existing counter for a name or creates
    it, so call sites need no global wiring, and two modules touching
    ``data/cache_hits`` share one count.
    """

    def __init__(self):
        self.counters: dict[str, StatCounter] = {}

    def counter(self, name: str) -> StatCounter:
        """The counter called ``name``, created on first use."""
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = StatCounter(name)
        return inst


_AMBIENT: list[MetricsRegistry] = [MetricsRegistry()]


def get_registry() -> MetricsRegistry:
    """The current ambient registry (instrumented code's default)."""
    return _AMBIENT[-1]


@contextlib.contextmanager
def registry_scope(registry: MetricsRegistry | None = None):
    """Swap in ``registry`` (fresh one by default) for a ``with`` block."""
    _AMBIENT.append(registry if registry is not None else MetricsRegistry())
    try:
        yield _AMBIENT[-1]
    finally:
        _AMBIENT.pop()
