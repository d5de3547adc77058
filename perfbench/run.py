"""Table III benchmark: one workload in one process.

    python3 perfbench/run.py --workload table3-ci --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Prints a table of every metric with its unit and sample count, then, as
the last line, one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Exits 1 when an output check
fails and 2 when the program cannot be found.  A record stamped with the
environment goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

#: End-to-end metrics in the final JSON line.  failed_frac travels there
#: as ``failed``/``attempted``: it reads 0 on a healthy run, so it has no
#: median to take a share of.  test_mae is deterministic for a seed but
#: moves with it (each seed is another world and initialisation), so it
#: is checked for exact equality instead of gated by a spread.
JSON_END_TO_END = ("setup_s", "reload_s", "train_samples_per_s",
                   "infer_samples_per_s", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the repeated predict passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {source / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    start = perf_counter()
    import repro
    import bench
    import_s = perf_counter() - start
    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {source}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = bench.WORKLOADS[args.workload]
    env = bench.environment(ROOT, workload.name, args.seed)
    work_dir = WORK / str(os.getpid())
    try:
        result = bench.run(workload, args.seed, args.seconds,
                           bool(args.trace), work_dir)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = write_record(result, env, import_s)
    report(result, env, import_s)
    chosen = result.layers if result.trace else {
        name: result.metrics[name] for name in JSON_END_TO_END
        if name in result.metrics}
    print(json.dumps({
        "correct": result.correct, "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in chosen.items()}}))
    print(f"record: {record}", file=sys.stderr)
    return 0 if result.correct else 1


def write_record(result, env, import_s) -> Path:
    """Save the run's record; compare test_mae with the run of the other
    trace mode on the same seed and source, when one was recorded."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{result.workload}-seed{result.seed}"
    path = RESULTS / f"{stem}-trace{int(result.trace)}.json"
    other = RESULTS / f"{stem}-trace{int(not result.trace)}.json"
    maes = {name: m.get("test_mae") for name, m in result.models.items()}
    if other.exists():
        theirs = json.loads(other.read_text())
        if theirs["environment"]["source"] == env["source"] \
                and theirs["test_mae"] != maes:
            result.problems.append(
                f"test_mae differs from the trace={int(not result.trace)} "
                f"run of the same seed: {theirs['test_mae']} vs {maes}")
    record = {
        "environment": env, "trace": result.trace, "import_s": import_s,
        "correct": result.correct, "problems": result.problems,
        "attempted": result.attempted, "failed": result.failed,
        "metrics": {n: vars(m) for n, m in result.metrics.items()},
        "layers": {n: vars(m) for n, m in result.layers.items()},
        "test_mae": maes, "models": result.models,
        "diagnostics": result.diagnostics,
    }
    path.write_text(json.dumps(record, indent=1, default=str))
    if result.tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps(result.tracer.to_json()))
    return path


def report(result, env, import_s) -> None:
    """The human-readable part of the output."""
    print(f"perfbench {result.workload} seed={result.seed} "
          f"trace={int(result.trace)}")
    print("environment: " + json.dumps(env))
    print(f"import_s {import_s:.4f} (diagnostic, not in setup_s)")
    probe = result.diagnostics["host_probe_ms"]
    print(f"host_probe_ms {_cell(probe)} (median/max of a fixed workload "
          "outside the program: the host's own speed during the run)")
    rows = result.layers.items() if result.trace else result.metrics.items()
    print(f"{'metric':<26} {'value':>14} {'unit':<11} {'n':>6}")
    for name, m in rows:
        print(f"{name:<26} {m.value:>14.6g} {m.unit:<11} {m.samples:>6}")
    if result.trace:
        print("failed_frac", result.metrics["failed_frac"].value)
    print()
    if result.trace:
        cols = ("untraced_step_ms", "gather_ms", "forward_ms", "backward_ms",
                "optim_ms", "overhead_ms", "accounted_pct", "tape_nodes",
                "einsum_ms", "einsum_calls", "conv2d_ms", "conv2d_calls",
                "matmul_ms", "matmul_calls", "infer_ms")
    else:
        cols = ("step_ms", "predict_s", "test_mae")
    print("per model: " + "  ".join(cols))
    for name, m in result.models.items():
        print(f"  {name:<14} " + "  ".join(_cell(m.get(c)) for c in cols))
    if result.trace:
        print()
        print("self time per span (traced spans only; share of the phase)")
        print(f"  {'phase':<7} {'layer':<15} {'span':<22} {'calls':>7} "
              f"{'self_ms':>10} {'share':>7}")
        for phase, layer, name, calls, seconds, share in \
                result.diagnostics["self_time"]:
            print(f"  {phase:<7} {layer:<15} {name:<22} {calls:>7} "
                  f"{seconds * 1e3:>10.2f} {share:>7.1%}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")


def _cell(value) -> str:
    if isinstance(value, dict):                 # median/max/n summary
        if value["median"] is None:
            return "-"
        return f"{value['median']:.4g}/{value['max']:.4g}(n={value['n']})"
    if isinstance(value, list):
        return str(value[0]) if len(set(value)) == 1 else str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
