"""Table III benchmark: set-up, training steps and test-set inference of
the paper's models, measured end to end or, in a traced run, per layer.

Every workload is a closed loop: one caller in one process, each call
waits for the previous one.  BLAS keeps its default thread count, which
the result records.  The workload seed reaches the program only as
``load_dataset(seed_offset=seed)`` and as the model and shuffle seeds.
See ``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from repro import PAPER_MODELS, create_model, load_dataset
from repro.core import TrainingConfig, predict
from repro.core.metrics import mae
from repro.datasets import (DatasetCache, SupervisedSplit, TrafficSimulator,
                            catalog)
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.profiler import profile
from repro.nn.tensor import Tensor
from repro.obs.stats import registry_scope
from repro.train import Engine
from repro.train.callbacks import Callback, default_callbacks

from tracing import Patches, Tracer, self_time_table, self_times

EVAL_BATCH = 64
MIN_PASSES = 2                 # predict passes per model, at least


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: str
    models: tuple[str, ...]
    batch_size: int
    warmup_steps: int          # untimed steps per model before the timed ones
    timed_steps: int           # timed steps per model
    setup_repeats: int         # cold set-ups, each into an empty cache
    reload_repeats: int        # warm reloads after each set-up
    test_windows: int | None   # evenly spaced test windows; None = all
    val_windows: int | None    # evenly spaced validation windows; None = all


#: Dispatch-bound (tiny ops) and kernel-bound (7x the sensors) variants of
#: the same Table III models; README.md says what each one predicts.
WORKLOADS = {w.name: w for w in (
    Workload("table3-ci", "metr-la", "ci", PAPER_MODELS, batch_size=32,
             warmup_steps=2, timed_steps=22, setup_repeats=8,
             reload_repeats=5, test_windows=None, val_windows=None),
    Workload("pemsd7-bench", "pemsd7", "bench", PAPER_MODELS, batch_size=32,
             warmup_steps=1, timed_steps=4, setup_repeats=6,
             reload_repeats=4, test_windows=32, val_windows=8),
)}


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)     # end to end
    layers: dict[str, Metric] = field(default_factory=dict)      # traced run
    models: dict[str, dict] = field(default_factory=dict)        # diagnostics
    host_probe_s: list[float] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# --------------------------------------------------------------------- #
# small helpers
# --------------------------------------------------------------------- #
def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def subset(split: SupervisedSplit, count: int | None) -> SupervisedSplit:
    """An eager split of ``count`` evenly spaced windows (the whole split
    for None)."""
    if count is None:
        return split
    total = split.num_samples
    x, y, start = split.batch(
        np.unique(np.linspace(0, total - 1, min(count, total)).astype(int)))
    return SupervisedSplit(x=x, y=y, start_index=start)


def host_probe() -> float:
    """Seconds for a fixed piece of work that calls no program code: a
    Python loop, a 256x256 BLAS matmul and an 8 MB copy.  Sampled through
    a run, it shows how fast the host itself was while the run measured."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    square = np.ones((256, 256))
    square @ square
    np.ones(1_000_000).copy()
    return perf_counter() - start


def same_world(a, b) -> bool:
    return (np.array_equal(a.supervised.series, b.supervised.series,
                           equal_nan=True)
            and np.array_equal(a.adjacency, b.adjacency)
            and all(np.array_equal(p.start_index, q.start_index)
                    for p, q in zip(a.supervised.splits, b.supervised.splits)))


# --------------------------------------------------------------------- #
# environment stamp
# --------------------------------------------------------------------- #
def blas_threads() -> int | None:
    """The thread count the bundled OpenBLAS will use, read, not set."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def git_commit(root: Path) -> str:
    """HEAD's sha with ``-dirty`` for uncommitted edits; ``unknown`` when
    ``root`` is not a git checkout."""
    if not (root / ".git").exists():
        return "unknown"
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    status = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                             "--untracked-files=no"],
                            capture_output=True, text=True, timeout=30)
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def source_digest(root: Path) -> str:
    """sha256 over the program's and the benchmark's source files, so
    records of the same code can be matched without git."""
    digest = hashlib.sha256()
    paths = [*(root / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(root), "source": source_digest(root),
    }


# --------------------------------------------------------------------- #
# training steps
# --------------------------------------------------------------------- #
class StepTimer(Callback):
    """Times each training step: the interval between successive
    ``on_batch_end`` calls (the first runs from ``on_epoch_start``).

    ``boundary(step, start, end)`` runs between steps, outside every
    interval: ``step`` is the index of the step about to start, and
    ``start``/``end`` bound the step that just ended (None before the
    first).
    """

    def __init__(self, boundary=None):
        self.intervals: list[float] = []
        self.losses: list[float] = []
        self.boundary = boundary
        self._start = 0.0

    def on_epoch_start(self, state) -> None:
        self._next(0, None)

    def on_batch_end(self, state) -> None:
        end = perf_counter()
        self.intervals.append(end - self._start)
        self.losses.append(state.batch_loss)
        self._next(state.batch + 1, end)

    def _next(self, step: int, end: float | None) -> None:
        if self.boundary is not None:
            self.boundary(step, self._start if end is not None else None, end)
        self._start = perf_counter()


class StepTracing:
    """Traces warm-up steps and every other timed step of one model.

    Traced steps run with the layer wrappers installed; the steps between
    them run on the untouched program, so the traced run measures its own
    overhead against steps interleaved in time.  Tape nodes are counted
    (``repro.nn.profiler.profile``) on the warm-up steps only.
    """

    def __init__(self, tracer: Tracer, model_name: str, model,
                 workload: Workload):
        self.tracer = tracer
        self.model_name = model_name
        self.workload = workload
        self.traced_steps: set[int] = set()
        self.tape_nodes: list[int] = []
        self._first_span = 0
        self._counting = False
        self.patches = kernel_patches(tracer)
        self.patches.add(SupervisedSplit, "batch",
                         tracer.timed("datasets.gather", SupervisedSplit.batch))
        self.patches.add(Tensor, "backward",
                         tracer.timed("nn.backward", Tensor.backward))
        self.patches.add(Adam, "step", tracer.timed("nn.optim_step", Adam.step))
        self.patches.add(model, "training_loss",
                         self._forward(model.training_loss))

    def _forward(self, training_loss):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            index = tracer.begin("models.forward")
            try:
                if not self._counting:
                    return training_loss(*args, **kwargs)
                with profile() as report:
                    out = training_loss(*args, **kwargs)
                self.tape_nodes.append(report.total_nodes)
                return out
            finally:
                tracer.end(index)
        return wrapper

    def boundary(self, step: int, start: float | None,
                 end: float | None) -> None:
        tracer = self.tracer
        if self.patches.active:
            tracer.enclose("train.step", start, end, self._first_span)
            self.patches.uninstall()
        warmup = self.workload.warmup_steps
        last = warmup + self.workload.timed_steps
        if step < last and (step < warmup or (step - warmup) % 2 == 0):
            self.traced_steps.add(step)
            self._counting = step < warmup
            tracer.trace_id = f"train/{self.model_name}/{step}"
            self._first_span = len(tracer.spans)
            self.patches.install()


def kernel_patches(tracer: Tracer) -> Patches:
    patches = Patches(tracer)
    patches.add(F, "einsum", tracer.kernel("nn.einsum", F.einsum))
    patches.add(F, "conv2d", tracer.kernel("nn.conv2d", F.conv2d))
    patches.add(Tensor, "matmul", tracer.kernel("nn.matmul", Tensor.matmul))
    return patches


def setup_patches(tracer: Tracer) -> Patches:
    patches = Patches(tracer)
    for attr, name in (("build_network", "graph.build_network"),
                       ("gaussian_adjacency", "graph.adjacency"),
                       ("make_windows", "datasets.make_windows")):
        patches.add(catalog, attr, tracer.timed(name, getattr(catalog, attr)))
    patches.add(TrafficSimulator, "run",
                tracer.timed("datasets.simulate", TrafficSimulator.run))
    patches.add(DatasetCache, "put",
                tracer.timed("datasets.cache_put", DatasetCache.put))
    patches.add(DatasetCache, "get",
                tracer.timed("datasets.cache_get", DatasetCache.get))
    return patches


def infer_patches(tracer: Tracer, model) -> Patches:
    patches = kernel_patches(tracer)
    patches.add(SupervisedSplit, "batch",
                tracer.timed("datasets.gather", SupervisedSplit.batch))
    patches.add(model, "forward", tracer.timed("models.infer", model.forward))
    return patches


# --------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------- #
def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> Result:
    """Run one workload; ``work_dir`` holds its throwaway dataset caches."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    result = Result(workload=workload.name, seed=seed, trace=trace)
    tracer = result.tracer = Tracer() if trace else None
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    try:
        with registry_scope() as registry:
            rounds = LoadRounds(workload, seed, tracer, work_dir, result,
                                registry)
            data, models = rounds.next()
            inference = Inference(workload, tracer, data, result)
            steps = {}
            for index, (name, model) in enumerate(models.items()):
                if index:
                    rounds.next()
                result.host_probe_s.append(host_probe())
                trained = train_model(workload, seed, tracer, data, name,
                                      model, result)
                if trained is not None:
                    steps[name] = trained
                    inference.predict(name, model, 0)
            rounds.rest()
            inference.rounds({n: models[n] for n in steps}, seconds)
    finally:
        if cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = cache_dir
    trained = list(steps)
    passes, split = inference.passes, inference.split
    for name in trained:
        result.models[name]["test_mae"] = mae(inference.first[name], split.y)

    timed = {name: [t for step, t, traced in steps[name]
                    if step >= workload.warmup_steps and not traced]
             for name in trained}
    untraced_passes = {name: [t for t, traced in passes[name] if not traced]
                      for name in trained}
    for name in trained:
        result.models[name].update(
            step_ms=_summary(timed[name], 1e3),
            predict_s=_summary(untraced_passes[name], 1.0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = result.metrics
    setup_s, reload_s = rounds.setup_s, rounds.reload_s
    metrics["setup_s"] = Metric(median(setup_s), "s", len(setup_s))
    metrics["reload_s"] = Metric(median(reload_s), "s", len(reload_s))
    if trained:
        metrics["train_samples_per_s"] = Metric(
            geomean(workload.batch_size / median(timed[n]) for n in trained),
            "samples/s", sum(len(timed[n]) for n in trained))
        metrics["infer_samples_per_s"] = Metric(
            geomean(split.num_samples / median(untraced_passes[n])
                    for n in trained),
            "samples/s", sum(len(untraced_passes[n]) for n in trained))
        metrics["test_mae"] = Metric(
            statistics.fmean(result.models[n]["test_mae"] for n in trained),
            "data-units", len(trained))
    metrics["peak_rss_mb"] = Metric(peak_rss_mb, "MiB", 1)
    metrics["failed_frac"] = Metric(result.failed / max(result.attempted, 1),
                                    "ratio", result.attempted)
    result.diagnostics.update(
        setup_s=setup_s, reload_s=reload_s,
        test_windows=split.num_samples,
        host_probe_ms=_summary(result.host_probe_s, 1e3),
        cache_entry_mb=[b / 2**20 for b in rounds.entry_bytes])
    if trace and trained:
        _layer_metrics(workload, result, steps, rounds.entry_bytes, trained)
    return result


def _summary(values: list[float], scale: float) -> dict:
    """Median, max and count of a list of timings (scaled)."""
    if not values:
        return {"median": None, "max": None, "n": 0}
    return {"median": median(values) * scale, "max": max(values) * scale,
            "n": len(values)}


class LoadRounds:
    """Rounds of one cold set-up followed by warm reloads of its world.

    A cold set-up loads into an empty cache and then creates and flattens
    every model; each reload must be a cache hit that gives back exactly
    the world the set-up built.  Round 0 runs first and its world and
    models are the ones trained; the other rounds run between the models'
    training, so set-up and reload samples are spread over the run
    instead of bunched at its start.
    """

    def __init__(self, workload, seed, tracer, work_dir, result, registry):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.work_dir = work_dir
        self.result = result
        self.hits = registry.counter("data/cache_hits")
        self.patches = setup_patches(tracer) if tracer else None
        self.setup_s: list[float] = []
        self.reload_s: list[float] = []
        self.entry_bytes: list[int] = []

    def next(self):
        """Run the next round; returns its world and models, or None when
        every round has run."""
        index = len(self.setup_s)
        if index >= self.workload.setup_repeats:
            return None
        cache_dir = self.work_dir / f"cache-{index}"
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
        with self._span(f"setup/{index}", "bench.setup"):
            self.result.attempted += 1
            start = perf_counter()
            data = self._load()
            models = {}
            for name in self.workload.models:
                model = create_model(name, data.num_nodes, data.adjacency,
                                     seed=self.seed)
                model.flatten_parameters()
                models[name] = model
            self.setup_s.append(perf_counter() - start)
        self.entry_bytes.append(sum(p.stat().st_size
                                    for p in cache_dir.glob("*.npz")))
        if not self.entry_bytes[-1]:
            self.result.problems.append(f"set-up {index} wrote no cache entry")
        for repeat in range(self.workload.reload_repeats):
            self._reload(data, f"reload/{index}/{repeat}")
        shutil.rmtree(cache_dir)
        return data, models

    def rest(self) -> None:
        while self.next() is not None:
            pass

    def _load(self):
        return load_dataset(self.workload.dataset, scale=self.workload.scale,
                            seed_offset=self.seed, cache=True)

    def _reload(self, data, trace_id: str) -> None:
        result = self.result
        result.attempted += 1
        before = self.hits.value
        try:
            with self._span(trace_id, "bench.reload"):
                start = perf_counter()
                again = self._load()
                self.reload_s.append(perf_counter() - start)
        except Exception:
            traceback.print_exc()
            result.failed += 1
            return
        if self.hits.value != before + 1:
            result.problems.append(f"{trace_id} missed the cache")
        elif not same_world(data, again):
            result.problems.append(f"{trace_id} differs from the set-up")

    @contextmanager
    def _span(self, trace_id: str, name: str):
        """A root span with the set-up patches installed (traced run)."""
        if self.tracer is None:
            yield
            return
        self.tracer.trace_id = trace_id
        self.patches.install()
        root = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(root)
            self.patches.uninstall()


def train_model(workload, seed, tracer, data, name, model, result):
    """``warmup + timed`` steps of one model in one epoch; returns a list
    of ``(step, seconds, traced)``, or None when training failed."""
    steps_per_model = workload.warmup_steps + workload.timed_steps
    full_batches = data.supervised.train.num_samples // workload.batch_size
    if steps_per_model > full_batches:
        raise ValueError(f"{workload.name}: {steps_per_model} steps need "
                         f"more than the {full_batches} full batches")
    supervised = data.supervised
    view = replace(data, supervised=replace(
        supervised, val=subset(supervised.val, workload.val_windows)))
    config = TrainingConfig(epochs=1, batch_size=workload.batch_size,
                            max_batches_per_epoch=steps_per_model,
                            eval_batch_size=EVAL_BATCH)
    tracing = StepTracing(tracer, name, model, workload) if tracer else None
    timer = StepTimer(tracing.boundary if tracing else None)
    engine = Engine(config, callbacks=default_callbacks(config) + [timer])
    try:
        engine.fit(model, view, seed=seed)
    except Exception as exc:
        traceback.print_exc()
        result.attempted += 1
        result.failed += 1
        result.problems.append(f"{name}: training raised {exc!r}")
        return None
    finally:
        if tracing:
            tracing.patches.uninstall()
    result.attempted += len(timer.losses)
    bad = sum(not math.isfinite(loss) for loss in timer.losses)
    result.failed += bad
    if bad:
        result.problems.append(f"{name}: {bad} non-finite losses")
    if len(timer.intervals) != steps_per_model:
        result.problems.append(f"{name}: ran {len(timer.intervals)} of "
                               f"{steps_per_model} steps")
        return None
    traced = tracing.traced_steps if tracing else set()
    result.models[name] = {"tape_nodes": tracing.tape_nodes
                           if tracing else None}
    return [(step, seconds, step in traced)
            for step, seconds in enumerate(timer.intervals)]


class Inference:
    """``predict`` passes over a fixed slice of the test split.

    Each model's first pass runs right after its training, and the later
    rounds run round-robin over every model at the end, so a model's
    passes are spread over the run.  In the traced run every odd round is
    traced.  Every pass must reproduce the model's first bit for bit, and
    every output be finite.
    """

    def __init__(self, workload, tracer, data, result):
        self.workload = workload
        self.tracer = tracer
        self.result = result
        self.split = subset(data.supervised.test, workload.test_windows)
        self.scaler = data.supervised.scaler
        self.passes: dict[str, list[tuple[float, bool]]] = defaultdict(list)
        self.first: dict[str, np.ndarray] = {}

    def rounds(self, models: dict, seconds: float) -> None:
        """Rounds 1, 2, ... until ``seconds`` have passed and every model
        has had ``MIN_PASSES`` passes."""
        start = perf_counter()
        index = 1
        while models and (index < MIN_PASSES
                          or perf_counter() - start < seconds):
            self.result.host_probe_s.append(host_probe())
            for name, model in models.items():
                self.predict(name, model, index)
            index += 1

    def predict(self, name: str, model, round_index: int) -> None:
        tracer = self.tracer
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            patches = infer_patches(tracer, model)
            tracer.trace_id = f"infer/{name}/{round_index}"
            patches.install()
            root = tracer.begin("core.predict")
        began = perf_counter()
        try:
            out, _ = predict(model, self.split, self.scaler, EVAL_BATCH)
        finally:
            if traced:
                tracer.end(root)
                patches.uninstall()
        self.passes[name].append((perf_counter() - began, traced))
        result = self.result
        bounds = range(0, len(out), EVAL_BATCH)
        result.attempted += len(bounds)
        bad = sum(not np.isfinite(out[i:i + EVAL_BATCH]).all()
                  for i in bounds)
        result.failed += bad
        if name not in self.first:
            self.first[name] = out
            if bad:
                result.problems.append(
                    f"{name}: {bad} predict batches not finite")
        elif not np.array_equal(out, self.first[name], equal_nan=True):
            result.problems.append(
                f"{name}: predict round {round_index} differs from round 0")


# --------------------------------------------------------------------- #
# per-layer metrics of the traced run
# --------------------------------------------------------------------- #
KERNELS = ("nn.einsum", "nn.conv2d", "nn.matmul")
STEP_PARTS = ("datasets.gather", "models.forward", "nn.backward",
              "nn.optim_step")


def _layer_metrics(workload, result, steps, entry_bytes, trained):
    spans = result.tracer.spans
    own = self_times(spans)
    by_id = defaultdict(list)
    for index, row in enumerate(spans):
        by_id[row[4]].append(index)

    def durations(prefix, name):
        return [spans[i][2] - spans[i][1]
                for tid, rows in by_id.items() if tid.startswith(prefix)
                for i in rows if spans[i][0] == name]

    gathers = []
    for name in trained:
        traced = [step for step, _, was_traced in steps[name]
                  if was_traced and step >= workload.warmup_steps]
        untraced = [t for step, t, was_traced in steps[name]
                    if not was_traced and step >= workload.warmup_steps]
        per_step = defaultdict(list)
        for step in traced:
            rows = by_id[f"train/{name}/{step}"]
            total = defaultdict(float)
            calls = defaultdict(int)
            for i in rows:
                label = spans[i][0]
                seconds = spans[i][2] - spans[i][1]
                if label == "train.step":
                    per_step["step"].append(seconds)
                    per_step["overhead"].append(own[i])
                elif label in STEP_PARTS and spans[i][3] is not None \
                        and spans[spans[i][3]][0] == "train.step":
                    total[label] += seconds
                    if label == "datasets.gather":
                        gathers.append(seconds)
                kernel = label.removesuffix("_backward")
                if kernel in KERNELS:
                    total[kernel] += seconds
                    calls[kernel] += label == kernel
            for label in STEP_PARTS + KERNELS:
                per_step[label].append(total[label])
            for kernel in KERNELS:
                per_step[kernel + "_calls"].append(calls[kernel])
        med = {key: median(values) for key, values in per_step.items()}
        infer = durations(f"infer/{name}/", "models.infer")
        predict_s = durations(f"infer/{name}/", "core.predict")
        parts = sum(med[label] for label in STEP_PARTS) + med["overhead"]
        untraced_step = median(untraced) if untraced else float("nan")
        result.models[name].update({
            "traced_step_ms": med["step"] * 1e3,
            "untraced_step_ms": untraced_step * 1e3,
            "gather_ms": med["datasets.gather"] * 1e3,
            "forward_ms": med["models.forward"] * 1e3,
            "backward_ms": med["nn.backward"] * 1e3,
            "optim_ms": med["nn.optim_step"] * 1e3,
            "overhead_ms": med["overhead"] * 1e3,
            "accounted_pct": 100 * parts / untraced_step,
            "infer_ms": median(infer) * 1e3, "infer_batches": len(infer),
            "core_predict_s": median(predict_s),
            "traced_steps": len(traced), "untraced_steps": len(untraced),
            **{f"{k.split('.')[1]}_ms": med[k] * 1e3 for k in KERNELS},
            **{f"{k.split('.')[1]}_calls": med[k + "_calls"]
               for k in KERNELS},
        })

    models = [result.models[n] for n in trained]
    traced_sps = geomean(workload.batch_size / (m["traced_step_ms"] / 1e3)
                         for m in models)
    untraced_sps = geomean(workload.batch_size / (m["untraced_step_ms"] / 1e3)
                           for m in models)
    n_traced = sum(m["traced_steps"] for m in models)
    layers = result.layers
    for metric, span_name, phase in (
            ("graph.build_network_s", "graph.build_network", "setup/"),
            ("graph.adjacency_s", "graph.adjacency", "setup/"),
            ("datasets.simulate_s", "datasets.simulate", "setup/"),
            ("datasets.make_windows_s", "datasets.make_windows", "setup/"),
            ("datasets.cache_put_s", "datasets.cache_put", "setup/"),
            ("datasets.cache_get_s", "datasets.cache_get", "reload/")):
        values = durations(phase, span_name)
        layers[metric] = Metric(median(values), "s", len(values))
    layers["datasets.cache_entry_mb"] = Metric(
        median(entry_bytes) / 2**20, "MiB", len(entry_bytes))
    layers["datasets.gather_ms"] = Metric(median(gathers) * 1e3, "ms",
                                          len(gathers))
    layers["datasets.batches"] = Metric(
        sum(len(steps[n]) for n in trained), "count", len(trained))
    for name, m in zip(trained, models):
        for key in ("forward_ms", "backward_ms", "optim_ms"):
            layers[f"models.{name}.{key}"] = Metric(m[key], "ms",
                                                    m["traced_steps"])
        layers[f"models.{name}.infer_ms"] = Metric(m["infer_ms"], "ms",
                                                   m["infer_batches"])
        layers[f"models.{name}.tape_nodes"] = Metric(
            m["tape_nodes"][0], "count", 1)
    for kernel in ("einsum", "conv2d", "matmul"):
        layers[f"nn.{kernel}_ms"] = Metric(
            statistics.fmean(m[f"{kernel}_ms"] for m in models), "ms",
            n_traced)
        layers[f"nn.{kernel}_calls"] = Metric(
            statistics.fmean(m[f"{kernel}_calls"] for m in models), "count",
            n_traced)
    for metric, key, unit in (("train.overhead_ms", "overhead_ms", "ms"),
                              ("train.accounted_pct", "accounted_pct", "%")):
        layers[metric] = Metric(geomean(m[key] for m in models), unit,
                                n_traced)
    layers["core.predict_s"] = Metric(
        geomean(m["core_predict_s"] for m in models), "s", len(models))
    layers["obs.trace_overhead_pct"] = Metric(
        100 * (1 - traced_sps / untraced_sps), "%",
        n_traced + sum(m["untraced_steps"] for m in models))
    result.diagnostics["self_time"] = self_time_table(spans)

