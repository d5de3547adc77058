"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``datasets`` — list the Table I catalog with per-scale sizes
- ``models``   — list registered models and their parameter counts
- ``run``      — train & evaluate one (model, dataset) cell
- ``benchmark``— run a model×dataset matrix and print the paper tables
- ``simulate`` — generate a dataset and save it as ``.npz``
- ``report``   — render tables from a saved results JSON
- ``profile``  — op census of one model's forward+backward pass
- ``trace``    — inspect a JSONL telemetry trace: ``trace summarize``
  renders paper-style tables, ``trace spans`` the per-label
  self-time/total-time span table, and ``trace export --format chrome``
  a Chrome-tracing/Perfetto-loadable timeline
- ``bench``    — engine benchmarks (``bench kernels`` times the hot
  kernels against the reference ``np.add.at`` paths; ``bench optim``
  times the fused Adam step, clipping and ``zero_grad`` over the
  parameter arena against their per-parameter reference loops;
  ``bench data`` times the lazy window pipeline and the
  dataset cache against eager builds and cold loads; ``bench obs``
  times the tracing layer itself; ``--json`` records the matching
  ``BENCH_<suite>.json``; ``bench check`` re-runs suites and exits
  non-zero when a committed baseline's speedup regressed)
- ``cache``    — inspect the content-addressed dataset cache
  (``cache ls`` / ``cache info <key>`` / ``cache clear``; see
  docs/data.md)

``run`` and ``benchmark`` accept ``--trace PATH`` to record every telemetry
event as JSONL (plus a ``run.json`` manifest; see docs/observability.md);
``run --quiet`` suppresses the per-epoch console lines.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import SUITES, render_timings, run, write_bench_json
from .core import (TrainingConfig, aggregate_runs, fig1_table, fig2_table,
                   run_experiment, save_results, table3)
from .datasets import DATASETS, dataset_names, load_dataset
from .datasets.io import save_dataset
from .models import PAPER_MODELS, create_model, model_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Benchmark deep traffic-prediction models (ICDE 2021 "
                    "reproduction).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset catalog")
    sub.add_parser("models", help="list registered models")

    run = sub.add_parser("run", help="train & evaluate one model")
    run.add_argument("model", choices=model_names())
    run.add_argument("dataset", choices=dataset_names())
    run.add_argument("--scale", default="ci", choices=("ci", "bench", "paper"))
    run.add_argument("--epochs", type=int, default=3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--batch-size", type=int, default=32)
    run.add_argument("--lr", type=float, default=0.01)
    run.add_argument("--trace", metavar="PATH",
                     help="record telemetry events as JSONL at PATH "
                          "(a run.json manifest is written next to it)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-epoch progress lines")

    bench = sub.add_parser("benchmark", help="run a model×dataset matrix")
    bench.add_argument("--models", nargs="+", default=list(PAPER_MODELS),
                       choices=model_names())
    bench.add_argument("--datasets", nargs="+", default=["metr-la"],
                       choices=dataset_names())
    bench.add_argument("--scale", default="ci")
    bench.add_argument("--epochs", type=int, default=3)
    bench.add_argument("--repeats", type=int, default=2)
    bench.add_argument("--max-batches", type=int, default=12)
    bench.add_argument("--save", help="JSON output path")
    bench.add_argument("--trace", metavar="DIR",
                       help="write per-run JSONL traces + run manifests "
                            "into DIR")

    simulate = sub.add_parser("simulate", help="generate & save a dataset")
    simulate.add_argument("dataset", choices=dataset_names())
    simulate.add_argument("output", help=".npz output path")
    simulate.add_argument("--scale", default="ci")

    report = sub.add_parser(
        "report", help="render tables from a saved results JSON")
    report.add_argument("results", help="JSON written by 'benchmark --save'")
    report.add_argument("--table", default="fig1",
                        choices=("fig1", "table3", "fig2", "leaderboard"))
    report.add_argument("--dataset",
                        help="dataset filter (defaults to each present)")

    prof = sub.add_parser(
        "profile", help="op census of one model's forward+backward pass")
    prof.add_argument("model", choices=model_names())
    prof.add_argument("--dataset", default="metr-la", choices=dataset_names())
    prof.add_argument("--batch-size", type=int, default=8)
    prof.add_argument("--top", type=int, default=12)

    trace = sub.add_parser(
        "trace", help="inspect JSONL telemetry traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize", help="render a trace as paper-style tables")
    trace_summarize.add_argument("path", help="JSONL trace file")
    trace_export = trace_sub.add_parser(
        "export", help="export a trace as a viewer-loadable timeline")
    trace_export.add_argument("path", help="JSONL trace file")
    trace_export.add_argument("--format", default="chrome",
                              choices=("chrome",),
                              help="timeline format (chrome = Chrome "
                                   "tracing JSON, loads in Perfetto)")
    trace_export.add_argument("--output", metavar="PATH",
                              help="output file (default: "
                                   "<trace>.chrome.json)")
    trace_spans = trace_sub.add_parser(
        "spans", help="per-label self-time/total-time span table")
    trace_spans.add_argument("path", help="JSONL trace file")

    bench = sub.add_parser(
        "bench", help="engine benchmarks (reference vs fast kernels)")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    for suite in SUITES.values():
        bench_suite = bench_sub.add_parser(suite.name, help=suite.help)
        bench_suite.add_argument("--mode", default="full",
                                 choices=tuple(suite.modes),
                                 help="workload preset (quick for smoke "
                                      "runs)")
        bench_suite.add_argument("--case", action="extend", nargs="+",
                                 metavar="NAME",
                                 help="restrict to specific benchmark cases")
        bench_suite.add_argument("--json", metavar="PATH",
                                 help=f"write results JSON "
                                      f"(BENCH_{suite.name}.json)")
        bench_suite.add_argument("--trace", metavar="PATH",
                                 help="record bench_result events as JSONL")
    bench_check = bench_sub.add_parser(
        "check", help="gate bench results against the committed "
                      "BENCH_*.json baselines (exit 1 on regression)")
    bench_check.add_argument("--suite", nargs="+", metavar="NAME",
                             choices=tuple(SUITES),
                             help="suites to check (default: every suite "
                                  "with a baseline under --root)")
    bench_check.add_argument("--root", default=".",
                             help="directory holding the BENCH_*.json "
                                  "baselines (default: current directory)")
    bench_check.add_argument("--tolerance", type=float, default=None,
                             help="allowed relative speedup decay "
                                  "(default: 0.25)")
    bench_check.add_argument("--current", metavar="PATH",
                             help="compare this saved record instead of "
                                  "re-running the suite")
    bench_check.add_argument("--baseline", metavar="PATH",
                             help="baseline record to compare --current "
                                  "against")

    cache = sub.add_parser(
        "cache", help="inspect the content-addressed dataset cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("ls", help="list cached worlds (newest first)")
    cache_info = cache_sub.add_parser(
        "info", help="show one entry's spec, window, and array shapes")
    cache_info.add_argument("key", help="cache key (or unique prefix)")
    cache_sub.add_parser("clear", help="delete every cached world")
    return parser


def _cmd_datasets() -> int:
    print(f"{'name':<10} {'task':<6} {'region':<15} {'topology':<9} "
          f"{'paper nodes':>11} {'paper days':>10}")
    for name, spec in DATASETS.items():
        print(f"{name:<10} {spec.task:<6} {spec.region:<15} "
              f"{spec.topology:<9} {spec.paper_nodes:>11} "
              f"{spec.paper_days:>10}")
    return 0


def _cmd_models() -> int:
    # Parameter counts depend on graph size; report for a 10-node world.
    rng = np.random.default_rng(0)
    adjacency = np.eye(10) + (rng.random((10, 10)) > 0.7)
    print(f"{'name':<20} {'params@10nodes':>14}  paper model")
    for name in model_names():
        model = create_model(name, 10, adjacency, seed=0)
        tag = "yes" if name in PAPER_MODELS else "-"
        print(f"{name:<20} {model.num_parameters():>14,}  {tag}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .obs import EventBus, JSONLSink

    config = TrainingConfig(epochs=args.epochs, batch_size=args.batch_size,
                            learning_rate=args.lr, verbose=not args.quiet)
    bus = None
    manifest_path = None
    if args.trace:
        trace_path = Path(args.trace)
        bus = EventBus([JSONLSink(trace_path)])
        manifest_path = str(trace_path.parent / "run.json")
    data = load_dataset(args.dataset, scale=args.scale, bus=bus)
    print(f"Training {args.model} on {args.dataset} "
          f"({data.num_nodes} nodes, scale={args.scale}) ...")
    try:
        result = run_experiment(args.model, data, config, seed=args.seed,
                                bus=bus, manifest_path=manifest_path)
    finally:
        if bus is not None:
            bus.close()
    if args.trace:
        print(f"Trace written to {args.trace} "
              f"(manifest: {manifest_path})")
    evaluation = result.evaluation
    print(f"\n{'horizon':>8} {'MAE':>8} {'RMSE':>8} {'MAPE':>8} "
          f"{'hardMAE':>8} {'degr':>7}")
    for minutes in sorted(evaluation.full):
        full = evaluation.full[minutes]
        print(f"{minutes:>6}m  {full.mae:>8.3f} {full.rmse:>8.3f} "
              f"{full.mape:>7.1f}% "
              f"{evaluation.difficult[minutes].mae:>8.3f} "
              f"{evaluation.degradation(minutes):>+6.1f}%")
    print(f"\nparams={evaluation.num_parameters:,} "
          f"train/epoch={result.history.train_time_per_epoch:.2f}s "
          f"inference={evaluation.inference_seconds:.2f}s")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    from .obs import EventBus, JSONLSink

    config = TrainingConfig(epochs=args.epochs,
                            max_batches_per_epoch=args.max_batches)
    trace_dir = Path(args.trace) if args.trace else None

    def traced_run(model_name, data, seed):
        if trace_dir is None:
            return run_experiment(model_name, data, config, seed=seed)
        stem = f"{model_name}_{data.spec.name}_seed{seed}"
        bus = EventBus([JSONLSink(trace_dir / f"{stem}.jsonl")])
        try:
            return run_experiment(
                model_name, data, config, seed=seed, bus=bus,
                manifest_path=str(trace_dir / f"{stem}.run.json"))
        finally:
            bus.close()

    all_results = []
    for dataset_name in args.datasets:
        data = load_dataset(dataset_name, scale=args.scale)
        results = []
        for model_name in args.models:
            print(f"[{dataset_name}] {model_name}: "
                  f"{args.repeats} repeats ...", flush=True)
            runs = [traced_run(model_name, data, seed)
                    for seed in range(args.repeats)]
            results.append(aggregate_runs(runs))
        all_results.extend(results)
        print()
        print(fig1_table(results, dataset_name))
        print()
        print(table3(results, dataset_name))
        print()
        print(fig2_table(results, dataset_name))
        print()
    if args.save:
        save_results(all_results, args.save)
        print(f"Saved {len(all_results)} cells to {args.save}")
    if trace_dir is not None:
        print(f"Per-run traces + manifests in {trace_dir}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    data = load_dataset(args.dataset, scale=args.scale)
    save_dataset(data, args.output)
    print(f"Saved {args.dataset} (scale={args.scale}, "
          f"{data.num_nodes} nodes, {len(data.supervised.series)} steps) "
          f"to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .core import load_results
    from .core.rankings import leaderboard

    results = load_results(args.results)
    if not results:
        print("no results in file")
        return 1
    if args.table == "leaderboard":
        print(leaderboard(results))
        return 0
    datasets = ([args.dataset] if args.dataset
                else sorted({r.dataset_name for r in results}))
    renderers = {"fig1": fig1_table, "table3": table3, "fig2": fig2_table}
    for dataset in datasets:
        print(renderers[args.table](results, dataset))
        print()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .nn.profiler import profile
    from .nn.summary import summarize
    from .nn.tensor import Tensor

    data = load_dataset(args.dataset, scale="ci")
    train = data.supervised.train
    model = create_model(args.model, data.num_nodes, data.adjacency,
                         in_features=train.num_features, seed=0)
    batch = min(args.batch_size, train.num_samples)
    x_batch, y_batch, _ = train.batch(np.arange(batch),
                                      target_scaler=data.supervised.scaler)
    x = Tensor(x_batch, dtype=model.dtype)
    y = Tensor(y_batch, dtype=model.dtype)
    print(f"{args.model} on {args.dataset} "
          f"(batch {args.batch_size}, {data.num_nodes} nodes)\n")
    print(summarize(model, max_depth=1))
    print()
    with profile() as report:
        loss = model.training_loss(x, y)
        if loss.requires_grad:
            loss.backward()
    print("forward + backward op census:")
    print(report.render(args.top))
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from .bench.gate import (DEFAULT_TOLERANCE, check_records,
                             find_baselines, load_bench_record,
                             run_and_check)

    tolerance = (args.tolerance if args.tolerance is not None
                 else DEFAULT_TOLERANCE)
    if (args.current is None) != (args.baseline is None):
        print("bench check: --current and --baseline go together",
              file=sys.stderr)
        return 2
    try:
        if args.current is not None:
            report = check_records(load_bench_record(args.current),
                                   load_bench_record(args.baseline),
                                   tolerance=tolerance)
            print(report.render())
            return 0 if report.passed else 1
        baselines = find_baselines(args.root)
        if args.suite:
            missing = sorted(set(args.suite) - set(baselines))
            if missing:
                print(f"bench check: no baseline for suite(s) {missing} "
                      f"under {args.root}", file=sys.stderr)
                return 2
            baselines = {s: baselines[s] for s in args.suite}
        if not baselines:
            print(f"bench check: no BENCH_*.json baselines under "
                  f"{args.root}", file=sys.stderr)
            return 2
        passed = True
        for suite, path in baselines.items():
            report = run_and_check(suite, path, tolerance=tolerance)
            print(report.render())
            print()
            passed = passed and report.passed
        return 0 if passed else 1
    except (ValueError, RuntimeError) as exc:
        print(f"bench check: {exc}", file=sys.stderr)
        return 2


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.bench_command == "check":
        return _cmd_bench_check(args)

    from .obs import BenchResult, ConsoleSink, EventBus, JSONLSink

    suite = args.bench_command
    sinks = [ConsoleSink(kinds=(BenchResult.kind,))]
    if args.trace:
        sinks.append(JSONLSink(args.trace))
    bus = EventBus(sinks)
    print(SUITES[suite].banner.format(mode=args.mode) + "\n")
    try:
        timings = run(suite, mode=args.mode, bus=bus, cases=args.case)
    except ValueError as error:           # unknown case
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        bus.close()
    print()
    print(render_timings(timings))
    if args.json:
        write_bench_json(timings, args.json, mode=args.mode, suite=suite)
        print(f"\nResults written to {args.json}")
    if args.trace:
        print(f"Events written to {args.trace}")
    return 0


def _format_bytes(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{size:.1f} GiB"


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .datasets.cache import DatasetCache

    store = DatasetCache()
    if args.cache_command == "ls":
        entries = store.entries()
        if not entries:
            print(f"cache empty ({store.directory})")
            return 0
        print(f"{'dataset':<10} {'scale':<6} {'key':<16} {'size':>10}")
        for entry in entries:
            print(f"{entry.name:<10} {entry.scale:<6} {entry.key:<16} "
                  f"{_format_bytes(entry.size_bytes):>10}")
        total = sum(e.size_bytes for e in entries)
        print(f"\n{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
              f"{_format_bytes(total)} in {store.directory}")
        return 0
    if args.cache_command == "info":
        try:
            info = store.info(args.key)
        except (KeyError, ValueError) as exc:
            print(exc.args[0], file=sys.stderr)
            return 1
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    if args.cache_command == "clear":
        removed, freed = store.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}, "
              f"freed {_format_bytes(freed)} ({store.directory})")
        return 0
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import summarize_trace, validate_trace

    try:
        problems = validate_trace(args.path)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    # Unknown kinds degrade gracefully (the reader skips those lines, so
    # a newer trace still renders here); anything else is a broken file.
    hard = [p for p in problems if "unknown event kind" not in p]
    if hard:
        for problem in hard:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"trace warning: {problem} (line skipped)", file=sys.stderr)

    if args.trace_command == "summarize":
        print(summarize_trace(args.path))
        return 0
    if args.trace_command == "spans":
        from .obs import span_report
        print(span_report(args.path))
        return 0
    if args.trace_command == "export":
        from .obs import write_chrome_trace
        output = args.output or f"{args.path}.chrome.json"
        payload = write_chrome_trace(args.path, output)
        print(f"Chrome trace written to {output} "
              f"({len(payload['traceEvents'])} events; load at "
              f"https://ui.perfetto.dev)")
        return 0
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "models":
        return _cmd_models()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "benchmark":
        return _cmd_benchmark(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "cache":
        return _cmd_cache(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
