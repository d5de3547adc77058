"""Read, validate, and summarize JSONL traces written by :class:`JSONLSink`.

A trace is newline-delimited JSON: one object per event, each carrying an
``event`` kind tag, a unix timestamp ``t``, and the typed event's fields
(see :mod:`repro.obs.events`).  :func:`summarize_trace` renders a recorded
run back into the same table style :mod:`repro.core.report` uses for live
results — the CLI exposes it as ``python -m repro trace summarize``.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .events import (EVENT_KINDS, EpochEnd, EvalDone, Event, RunFinished,
                     RunStarted, event_from_record)

__all__ = ["read_trace", "validate_record", "validate_trace",
           "summarize_trace"]


def read_trace(path: str | Path, *, strict: bool = False,
               problems: list[str] | None = None) -> list[Event]:
    """Parse a JSONL trace into typed events (blank lines are skipped).

    Lines whose ``event`` kind this checkout does not know are *skipped*
    by default — a trace written by a newer version still reads, minus
    the foreign events — with a note appended to ``problems`` when a
    list is supplied.  ``strict=True`` restores the hard error.
    Malformed JSON is always an error: that is a broken file, not a
    version gap.
    """
    events = []
    for line_no, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{line_no}: not valid JSON "
                             f"({error})") from error
        if record.get("event") not in EVENT_KINDS:
            if strict:
                raise ValueError(
                    f"{path}:{line_no}: unknown event kind "
                    f"{record.get('event')!r}; expected one of "
                    f"{sorted(EVENT_KINDS)}")
            if problems is not None:
                problems.append(f"line {line_no}: skipped unknown event "
                                f"kind {record.get('event')!r}")
            continue
        events.append(event_from_record(record))
    return events


def validate_record(record: dict) -> list[str]:
    """Schema-check one trace record; returns problems ([] = valid)."""
    problems = []
    kind = record.get("event")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        return [f"unknown event kind {kind!r}"]
    for spec in fields(cls):
        if spec.name not in record:
            problems.append(f"{kind}: missing field {spec.name!r}")
    if not isinstance(record.get("t"), (int, float)):
        problems.append(f"{kind}: timestamp 't' is not a number")
    return problems


def validate_trace(path: str | Path) -> list[str]:
    """Schema-check a whole JSONL file; returns per-line problems."""
    problems = []
    for line_no, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"line {line_no}: not valid JSON")
            continue
        problems += [f"line {line_no}: {p}" for p in validate_record(record)]
    return problems


# --------------------------------------------------------------------- #
def _group_runs(events: list[Event]) -> list[list[Event]]:
    """Split a trace into per-run chunks at ``run_started`` boundaries.

    Traces that never saw a ``run_started`` (e.g. a bare ``train_model``)
    form one chunk.  Events preceding the first ``run_started`` (dataset
    load spans, cache telemetry) belong to that first run, not to a
    phantom unlabelled one.
    """
    runs: list[list[Event]] = []
    current: list[Event] = []
    for event in events:
        if (isinstance(event, RunStarted)
                and any(isinstance(e, RunStarted) for e in current)):
            runs.append(current)
            current = []
        current.append(event)
    if current:
        runs.append(current)
    return runs


def _summarize_run(run: list[Event]) -> str:
    from ..core.report import format_table    # lazy: avoids an import cycle

    started = next((e for e in run if isinstance(e, RunStarted)), None)
    finished = next((e for e in run if isinstance(e, RunFinished)), None)
    epochs = [e for e in run if isinstance(e, EpochEnd)]
    evals = [e for e in run if isinstance(e, EvalDone)]

    if started is not None:
        title = (f"Trace [{started.model} @ {started.dataset}, "
                 f"seed {started.seed}]")
    else:
        title = "Trace [unlabelled run]"
    lines = [title]

    if epochs:
        rows = [[str(e.epoch), f"{e.train_loss:.4f}", f"{e.val_mae:.4f}",
                 f"{e.seconds:.2f}"] for e in epochs]
        lines.append(format_table(
            ["epoch", "train loss", "val MAE", "seconds"], rows))
    else:
        lines.append("(no epochs recorded)")

    for evaluation in evals:
        horizon_rows = []
        for minutes in sorted(evaluation.full, key=int):
            full = evaluation.full[minutes]
            hard = evaluation.difficult.get(minutes, {})
            horizon_rows.append([
                f"{minutes}m",
                f"{full.get('mae', float('nan')):.3f}",
                f"{full.get('rmse', float('nan')):.3f}",
                f"{full.get('mape', float('nan')):.1f}%",
                f"{hard.get('mae', float('nan')):.3f}",
            ])
        lines.append(format_table(
            ["horizon", "MAE", "RMSE", "MAPE", "hardMAE"], horizon_rows))
        lines.append(f"inference={evaluation.inference_seconds:.2f}s "
                     f"params={evaluation.num_parameters:,}")

    if finished is not None:
        lines.append(f"wall={finished.wall_seconds:.1f}s "
                     f"best_epoch={finished.best_epoch} "
                     f"best_val_mae={finished.best_val_mae:.4f}")
    return "\n".join(lines)


def summarize_trace(source: str | Path | list[Event]) -> str:
    """Render a trace (path or parsed events) as paper-style tables.

    One block per recorded run: the per-epoch convergence table, the
    per-horizon evaluation table, and the run's cost line — the offline
    twin of what :mod:`repro.core.report` renders from live results.
    """
    events = (source if isinstance(source, list) else read_trace(source))
    if not events:
        return "(empty trace)"
    blocks = [_summarize_run(run) for run in _group_runs(events)]
    summary = [f"{len(events)} events, {len(blocks)} run(s)"]
    return "\n\n".join(["\n".join(summary)] + blocks)
