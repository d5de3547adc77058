"""`repro.obs` — experiment telemetry: events, sinks, manifests, traces.

The observability layer for the whole stack (see ``docs/observability.md``):

- :mod:`repro.obs.events` — typed events (:class:`RunStarted`,
  :class:`EpochEnd`, :class:`BatchEnd`, :class:`EvalDone`,
  :class:`CheckpointSaved`, :class:`RunFinished`, :class:`BenchResult`)
  on an :class:`EventBus` with pluggable sinks (console, JSONL file,
  in-memory recorder).
- :mod:`repro.obs.manifest` — the ``run.json`` writer: config, seed,
  parameter count, wall time, peak RSS, library versions.
- :mod:`repro.obs.trace` — JSONL trace parsing, schema validation, and
  ``repro trace summarize``-style reports.
- :mod:`repro.obs.spans` — nested, thread-correct span tracing
  (:func:`span`, :class:`SpanTree`, :func:`span_report`) over the bus.
- :mod:`repro.obs.stats` — the :class:`MetricsRegistry` of named
  counters (the dataset cache's hit and miss counts).
- :mod:`repro.obs.export` — Chrome-tracing/Perfetto timeline export.

The bench suites that emit :class:`BenchResult` (the tracing-overhead
suite among them) and the regression gate live in :mod:`repro.bench`,
which depends on this package, never the other way round.

Quickstart::

    from repro.obs import EventBus, JSONLSink
    bus = EventBus([JSONLSink("trace.jsonl")])
    run_experiment("graph-wavenet", data, config, seed=0,
                   bus=bus, manifest_path="run.json")
    bus.close()
"""

from .events import (EVENT_KINDS, BatchEnd, BenchResult, CheckpointSaved,
                     ConsoleSink, EpochEnd, EvalDone, Event, EventBus,
                     GradClip, JSONLSink, MemorySink, RunFinished, RunStarted,
                     SpanEvent, bus_scope, event_from_record,
                     event_to_record, get_bus)
from .export import chrome_trace, write_chrome_trace
from .manifest import (RunManifest, build_manifest, normalize_ru_maxrss,
                       peak_rss_kb, write_manifest)
from .spans import Span, SpanNode, SpanTree, disable_spans, span, span_report
from .stats import MetricsRegistry, StatCounter, get_registry, registry_scope
from .trace import read_trace, summarize_trace, validate_record, validate_trace

__all__ = [
    "Event", "RunStarted", "BatchEnd", "EpochEnd", "EvalDone",
    "CheckpointSaved", "RunFinished", "GradClip", "BenchResult",
    "SpanEvent", "EVENT_KINDS",
    "event_to_record", "event_from_record",
    "EventBus", "ConsoleSink", "JSONLSink", "MemorySink",
    "get_bus", "bus_scope",
    "RunManifest", "build_manifest", "write_manifest",
    "peak_rss_kb", "normalize_ru_maxrss",
    "read_trace", "validate_record", "validate_trace", "summarize_trace",
    "Span", "span", "disable_spans",
    "SpanNode", "SpanTree", "span_report",
    "StatCounter", "MetricsRegistry", "get_registry", "registry_scope",
    "chrome_trace", "write_chrome_trace",
]
