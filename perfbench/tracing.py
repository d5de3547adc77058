"""In-memory spans around calls into the program's public functions.

The traced run swaps a fixed set of public callables (module functions,
class methods and per-model methods) for timing wrappers while a step or
a predict pass is traced, and puts the originals back afterwards.  Each
wrapper records one span: its name, start, end, parent span and the
identifier shared by every span of one step, set-up or predict pass.
Spans stay in memory and are written out when the run ends; nothing
inside the program is edited.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

__all__ = ["Patches", "Tracer", "layer_of", "self_time_table", "self_times"]

_MISSING = object()

#: Span-name prefix -> the package whose public call the span times.
LAYERS = {"graph": "repro.graph", "datasets": "repro.datasets",
          "models": "repro.models", "nn": "repro.nn",
          "train": "repro.train", "core": "repro.core",
          "bench": "(benchmark)"}


def layer_of(name: str) -> str:
    return LAYERS.get(name.split(".", 1)[0], "?")


class Tracer:
    """Span recorder.  ``spans`` rows are ``[name, start, end, parent,
    trace_id]`` with ``parent`` an index into ``spans`` (or None).

    Wrappers record only while ``recording`` is set (by
    :meth:`Patches.install`): a caller that looked a wrapper up while it
    was installed and kept it, as ``DataLoader`` keeps ``split.batch``
    for a whole epoch, gets a plain call once the patches are off.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = ""
        self.recording = False
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.trace_id])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def enclose(self, name: str, start: float, end: float,
                first: int) -> None:
        """Add a span known only after the fact (a training step, timed
        between two ``on_batch_end`` calls) and adopt as its children the
        root spans recorded since index ``first``."""
        index = len(self.spans)
        for row in self.spans[first:]:
            if row[3] is None:
                row[3] = index
        self.spans.append([name, start, end, None, self.trace_id])

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)
        return wrapper

    def kernel(self, name: str, fn):
        """Like :meth:`timed` for an autograd op: the backward closure of
        the returned tensor is timed too, as ``<name>_backward``."""
        begin, end = self.begin, self.end
        backward_name = name + "_backward"

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(index)
            backward = out._backward
            if backward is not None:
                def timed_backward(grad):
                    inner = begin(backward_name)
                    try:
                        backward(grad)
                    finally:
                        end(inner)
                out._backward = timed_backward
            return out
        return wrapper

    def to_json(self) -> dict:
        return {"columns": ["name", "start", "end", "parent", "trace_id"],
                "spans": self.spans}


class Patches:
    """A set of attribute swaps applied and undone together; installed,
    they switch ``tracer.recording`` on."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._items: list[tuple] = []
        self.active = False

    def add(self, owner, attr: str, replacement) -> None:
        self._items.append((owner, attr, replacement,
                            vars(owner).get(attr, _MISSING)))

    def install(self) -> None:
        if not self.active:
            for owner, attr, replacement, _ in self._items:
                setattr(owner, attr, replacement)
            self.active = self.tracer.recording = True

    def uninstall(self) -> None:
        if self.active:
            for owner, attr, _, original in self._items:
                if original is _MISSING:
                    delattr(owner, attr)        # instance attr over a method
                else:
                    setattr(owner, attr, original)
            self.active = self.tracer.recording = False


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [row[2] - row[1] for row in spans]
    for row in spans:
        if row[3] is not None:
            own[row[3]] -= row[2] - row[1]
    return own


def self_time_table(spans: list[list]) -> list[tuple]:
    """Rows ``(phase, layer, name, calls, self_s, share)`` where phase is
    the trace-id prefix (setup, reload, train, infer) and share is the
    span's part of that phase's total traced time."""
    own = self_times(spans)
    totals: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
    phase_total: dict[str, float] = defaultdict(float)
    for row, seconds in zip(spans, own):
        phase = row[4].split("/", 1)[0]
        cell = totals[(phase, row[0])]
        cell[0] += 1
        cell[1] += seconds
        phase_total[phase] += seconds
    rows = [(phase, layer_of(name), name, calls, seconds,
             seconds / phase_total[phase] if phase_total[phase] else 0.0)
            for (phase, name), (calls, seconds) in totals.items()]
    rows.sort(key=lambda r: (r[0], -r[4]))
    return rows
