"""Performance-regression gate over the committed ``BENCH_*.json`` baselines.

PR 2–4 bought real speedups (kernels, fused optimizers, the lazy data
pipeline) and recorded them as ``BENCH_<suite>.json`` files at the repo
root.  This module keeps those wins from rotting silently: it compares a
fresh suite run (or any saved record) against the committed baseline and
fails when a case's speedup has decayed past a tolerance.

Comparisons use the *speedup ratio* (reference ÷ optimised), not raw
seconds — both sides of a ratio move together with machine load and CPU
generation, so ratios transfer across hosts where absolute timings do
not.  Observability-overhead cases (the ``obs`` suite's
``overhead_pct`` meta) are instead held to an absolute budget: tracing
an unobserved training step may cost at most 2%.

Entry points: ``repro bench check`` on the CLI, the
``REPRO_BENCH_CHECK=1`` knob in ``benchmarks/conftest.py``, and
:func:`check_records` / :func:`run_and_check` from Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import SUITES, run
from .harness import load_bench_record, timings_to_record

__all__ = [
    "DEFAULT_TOLERANCE", "OVERHEAD_BUDGET_PCT", "GateFinding", "GateReport",
    "find_baselines", "check_records", "run_and_check",
]

#: Allowed relative decay of a case's speedup before the gate fails.
DEFAULT_TOLERANCE = 0.25

#: Absolute ceiling (percent) for tracing overhead cases.
OVERHEAD_BUDGET_PCT = 2.0


@dataclass
class GateFinding:
    """One per-case verdict from a baseline comparison."""

    suite: str
    case: str
    status: str                    # ok|improved|regression|over_budget|
    #                                missing_case|new_case
    baseline: float | None = None  # baseline speedup (or overhead pct)
    current: float | None = None   # current speedup (or overhead pct)
    detail: str = ""

    @property
    def failed(self) -> bool:
        """True when this finding should fail the gate."""
        return self.status in ("regression", "over_budget", "missing_case")


@dataclass
class GateReport:
    """Outcome of gating one suite against its baseline."""

    suite: str
    mode: str
    tolerance: float
    findings: list[GateFinding] = field(default_factory=list)
    skipped: str = ""              # non-empty reason → nothing was compared

    @property
    def failures(self) -> list[GateFinding]:
        """Findings that fail the gate."""
        return [f for f in self.findings if f.failed]

    @property
    def passed(self) -> bool:
        """True when nothing regressed (a skipped comparison passes)."""
        return not self.failures

    def render(self) -> str:
        """Human-readable verdict table for terminal output."""
        title = f"bench check [{self.suite} @ {self.mode}]"
        if self.skipped:
            return f"{title}: SKIPPED ({self.skipped})"
        header = (f"{'case':<26} {'baseline':>10} {'current':>10} "
                  f"{'status':>12}")
        lines = [title, header, "-" * len(header)]
        for f in self.findings:
            base = "-" if f.baseline is None else f"{f.baseline:.2f}"
            cur = "-" if f.current is None else f"{f.current:.2f}"
            lines.append(f"{f.case:<26} {base:>10} {cur:>10} "
                         f"{f.status:>12}"
                         + (f"  {f.detail}" if f.detail else ""))
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict}: {len(self.failures)} regression(s), "
                     f"tolerance {self.tolerance:.0%}")
        return "\n".join(lines)


def find_baselines(root: str | Path = ".") -> dict[str, Path]:
    """Map suite name → committed ``BENCH_<suite>.json`` under ``root``."""
    root = Path(root)
    return {suite: path for suite in SUITES
            if (path := root / f"BENCH_{suite}.json").exists()}


def _check_tolerance(tolerance: float) -> None:
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")


def _case_finding(suite: str, name: str, base: dict, cur: dict,
                  tolerance: float, overhead_budget: float) -> GateFinding:
    if "overhead_pct" in cur.get("meta", {}):
        pct = float(cur["meta"]["overhead_pct"])
        base_pct = base.get("meta", {}).get("overhead_pct")
        status = "over_budget" if pct > overhead_budget else "ok"
        return GateFinding(
            suite, name, status, baseline=base_pct, current=pct,
            detail=f"overhead {pct:.2f}% vs budget {overhead_budget:.1f}%")
    base_speedup = float(base["speedup"])
    cur_speedup = float(cur["speedup"])
    floor = base_speedup * (1.0 - tolerance)
    if cur_speedup < floor:
        status, detail = "regression", (
            f"speedup {cur_speedup:.2f}x below floor {floor:.2f}x")
    elif cur_speedup > base_speedup * (1.0 + tolerance):
        status, detail = "improved", ""
    else:
        status, detail = "ok", ""
    return GateFinding(suite, name, status,
                       baseline=base_speedup, current=cur_speedup,
                       detail=detail)


def check_records(current: dict[str, Any], baseline: dict[str, Any], *,
                  tolerance: float = DEFAULT_TOLERANCE,
                  overhead_budget_pct: float = OVERHEAD_BUDGET_PCT,
                  ) -> GateReport:
    """Gate ``current`` against ``baseline`` (both bench-record dicts).

    Case speedups may decay at most ``tolerance`` (relative) below the
    baseline; cases carrying ``meta.overhead_pct`` are held to the
    absolute ``overhead_budget_pct`` instead.  A baseline case absent
    from the current run fails (coverage loss); a new current-only case
    is informational.  Records from different modes measure different
    geometries, so the comparison is skipped rather than judged.
    ``tolerance`` must lie in ``[0, 1)``: 1 or more would pass any
    slowdown, a negative value would fail identical records.
    """
    _check_tolerance(tolerance)
    suite = str(baseline.get("suite", "?"))
    mode = str(baseline.get("mode", "?"))
    report = GateReport(suite=suite, mode=mode, tolerance=tolerance)
    if current.get("suite") != baseline.get("suite"):
        report.skipped = (f"suite mismatch: current "
                          f"{current.get('suite')!r} vs baseline {suite!r}")
        return report
    if current.get("mode") != baseline.get("mode"):
        report.skipped = (f"mode mismatch: current {current.get('mode')!r} "
                          f"vs baseline {mode!r}")
        return report
    base_cases = {t["name"]: t for t in baseline["timings"]}
    cur_cases = {t["name"]: t for t in current["timings"]}
    for name, base in base_cases.items():
        cur = cur_cases.get(name)
        if cur is None:
            report.findings.append(GateFinding(
                suite, name, "missing_case",
                baseline=float(base["speedup"]),
                detail="case present in baseline but not in current run"))
        else:
            report.findings.append(_case_finding(
                suite, name, base, cur, tolerance, overhead_budget_pct))
    for name in cur_cases:
        if name not in base_cases:
            report.findings.append(GateFinding(
                suite, name, "new_case",
                current=float(cur_cases[name]["speedup"]),
                detail="no baseline yet"))
    return report


def run_and_check(suite: str, baseline_path: str | Path, *,
                  mode: str | None = None,
                  tolerance: float = DEFAULT_TOLERANCE,
                  bus=None) -> GateReport:
    """Re-run ``suite`` and gate it against the baseline at ``baseline_path``.

    ``mode`` defaults to the baseline's recorded mode so the comparison
    is apples-to-apples.
    """
    _check_tolerance(tolerance)          # before minutes of suite run
    baseline = load_bench_record(baseline_path)
    mode = mode if mode is not None else str(baseline["mode"])
    timings = run(suite, mode, bus=bus)
    current = timings_to_record(timings, mode, suite=suite)
    return check_records(current, baseline, tolerance=tolerance)
