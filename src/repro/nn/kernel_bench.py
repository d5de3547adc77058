"""Kernel benchmark suite: reference vs. optimised engine timings.

The paper's Table III compares per-model computation cost under one shared
framework, which is only honest if the shared kernels are near the numpy
speed-of-light (engine overhead would otherwise dominate the architecture
differences).  This module times the hot kernels both ways in one process
— the pre-optimisation reference paths (``np.add.at`` scatters, uncached
im2col indices, per-slice gradient buffers) against the current fast paths
— and reports the speedups that seed the repo's perf trajectory.

Cases
-----
- ``conv2d_backward``     backward through a ``(1, k)`` temporal conv (the
  kernel all four TCN models use) — dominated by the col2im scatter
- ``conv2d_backward_strided`` strided + dilated 3x3 conv backward
- ``conv2d_forward``      repeated forward passes (im2col index cache)
- ``col2im``              the raw scatter kernel in isolation
- ``split_backward``      gated-activation style split + backward
- ``unbind_backward``     T per-step views + backward (RNN input pattern)
- ``gru_step``            one GRU forward+backward over a short sequence
- ``stgcn_train_step``    a full STGCN training step (loss, backward,
  Adam update) on a synthetic graph
- ``einsum_graph_conv``   ``F.einsum`` forward+backward on Graph-WaveNet's
  ``nm,bcmt->bcnt`` propagation against the same three contractions as
  direct ``np.einsum`` calls (the case brings its own reference step; no
  engine switch)

Every case emits a :class:`repro.obs.KernelBench` event on the bus, so
timings flow through the same telemetry pipeline as training runs; the CLI
front-end is ``python -m repro bench kernels`` (use ``--json`` to record
``BENCH_kernels.json``).  See ``docs/performance.md``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..obs.events import EventBus, KernelBench, get_bus
from . import functional as F
from . import kernels as K
from .tensor import Tensor

__all__ = ["KernelTiming", "bench_kernels", "timings_to_record",
           "write_bench_json", "render_timings", "BENCH_MODES"]

#: Per-mode workload sizes.  ``quick`` keeps the whole suite under a few
#: seconds (the tier-1 smoke test runs it); ``full`` is the recorded
#: configuration behind ``BENCH_kernels.json``.
BENCH_MODES: dict[str, dict] = {
    "quick": dict(repeats=3, batch=4, channels=8, nodes=10, time_steps=12,
                  gru_hidden=16, stgcn_nodes=8, stgcn_batch=4,
                  gwn_batch=4, gwn_channels=8, gwn_nodes=10),
    "full": dict(repeats=5, batch=16, channels=32, nodes=48, time_steps=12,
                 gru_hidden=64, stgcn_nodes=36, stgcn_batch=16,
                 gwn_batch=32, gwn_channels=16, gwn_nodes=58),
}


@dataclass
class KernelTiming:
    """Reference vs. fast wall time for one benchmark case."""

    name: str
    reference_seconds: float
    fast_seconds: float
    meta: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Reference time over fast time (>1 means the fast path wins)."""
        if self.fast_seconds <= 0:
            return float("inf")
        return self.reference_seconds / self.fast_seconds


def _best_of(step, repeats: int) -> float:
    """Minimum wall time of ``step`` over ``repeats`` runs (one warm-up)."""
    step()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------- #
# cases — each builds a closure that runs one forward+backward (or the
# isolated kernel); the closure consults the reference-kernel switch at
# run time, so the same closure times both engines.  A case may instead
# return its own reference closure as a third element, timed as is.
# --------------------------------------------------------------------- #
def _case_conv2d_backward(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], sizes["channels"]
    nodes, steps = sizes["nodes"], sizes["time_steps"]
    x = Tensor(rng.normal(size=(batch, channels, nodes, steps)),
               requires_grad=True)
    w = Tensor(rng.normal(size=(channels, channels, 1, 3)),
               requires_grad=True)
    out = F.conv2d(x, w)
    g = np.ones_like(out.data)

    def step():
        out.backward(g)

    meta = {"input": list(x.shape), "kernel": [1, 3], "stride": [1, 1]}
    return step, meta


def _case_conv2d_backward_strided(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], max(4, sizes["channels"] // 2)
    side = max(12, sizes["nodes"] // 2)
    x = Tensor(rng.normal(size=(batch, channels, side, side)),
               requires_grad=True)
    w = Tensor(rng.normal(size=(channels, channels, 3, 3)),
               requires_grad=True)
    out = F.conv2d(x, w, stride=(2, 2), padding=(1, 1), dilation=(2, 2))
    g = np.ones_like(out.data)

    def step():
        out.backward(g)

    meta = {"input": list(x.shape), "kernel": [3, 3], "stride": [2, 2],
            "dilation": [2, 2], "padding": [1, 1]}
    return step, meta


def _case_conv2d_forward(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], sizes["channels"]
    nodes, steps = sizes["nodes"], sizes["time_steps"]
    x = Tensor(rng.normal(size=(batch, channels, nodes, steps)))
    w = Tensor(rng.normal(size=(channels, channels, 1, 3)))

    def step():
        F.conv2d(x, w)

    meta = {"input": list(x.shape), "kernel": [1, 3]}
    return step, meta


def _case_col2im(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], sizes["channels"]
    nodes, steps = sizes["nodes"], sizes["time_steps"]
    shape = (batch, channels, nodes, steps)
    kernel = (1, 3)
    out_w = steps - 2
    g_cols = rng.normal(size=(batch, channels, 3, nodes * out_w))

    def step():
        if K.reference_kernels_enabled():
            K.col2im_reference(g_cols, shape, kernel)
        else:
            K.col2im(g_cols, shape, kernel)

    meta = {"shape": list(shape), "kernel": list(kernel)}
    return step, meta


def _case_split_backward(sizes: dict, rng: np.random.Generator):
    batch, channels = sizes["batch"], sizes["channels"]
    nodes, steps = sizes["nodes"], sizes["time_steps"]
    data = rng.normal(size=(batch, 2 * channels, nodes, steps))

    def step():
        x = Tensor(data, requires_grad=True)
        value, gate = F.split(x, 2, axis=1)
        out = value * gate.sigmoid()
        out.backward(np.ones_like(out.data))

    meta = {"input": list(data.shape), "sections": 2}
    return step, meta


def _case_unbind_backward(sizes: dict, rng: np.random.Generator):
    batch, steps = sizes["batch"] * sizes["nodes"], sizes["time_steps"]
    hidden = sizes["gru_hidden"]
    data = rng.normal(size=(batch, steps, hidden))

    def step():
        x = Tensor(data, requires_grad=True)
        total = None
        for view in F.unbind(x, axis=1):
            term = (view * view).sum()
            total = term if total is None else total + term
        total.backward()

    meta = {"input": list(data.shape), "steps": steps}
    return step, meta


def _case_gru_step(sizes: dict, rng: np.random.Generator):
    from .layers import GRU

    batch, steps = sizes["batch"] * sizes["nodes"], sizes["time_steps"]
    hidden = sizes["gru_hidden"]
    gru = GRU(hidden, hidden, rng=np.random.default_rng(0))
    data = rng.normal(size=(batch, steps, hidden))

    def step():
        x = Tensor(data, requires_grad=True)
        outputs, _ = gru(x)
        outputs.sum().backward(free_graph=True)

    meta = {"input": list(data.shape), "hidden": hidden}
    return step, meta


def _case_stgcn_train_step(sizes: dict, rng: np.random.Generator):
    from ..models import create_model
    from .optim import Adam

    nodes, batch = sizes["stgcn_nodes"], sizes["stgcn_batch"]
    adjacency = np.eye(nodes) + (rng.random((nodes, nodes)) > 0.6)
    model = create_model("stgcn", nodes, adjacency, in_features=2, seed=0)
    model.train()
    optimizer = Adam(model.parameters(), lr=1e-3)
    x = Tensor(rng.normal(size=(batch, 12, nodes, 2)))
    y = Tensor(rng.normal(size=(batch, 12, nodes)))

    def step():
        optimizer.zero_grad()
        loss = model.training_loss(x, y)
        loss.backward(free_graph=True)
        optimizer.step()

    meta = {"nodes": nodes, "batch": batch,
            "parameters": model.num_parameters()}
    return step, meta


def _case_einsum_graph_conv(sizes: dict, rng: np.random.Generator):
    subscripts = "nm,bcmt->bcnt"
    nodes = sizes["gwn_nodes"]
    support = rng.normal(size=(nodes, nodes))
    signal = rng.normal(size=(sizes["gwn_batch"], sizes["gwn_channels"],
                              nodes, sizes["time_steps"]))
    g = np.ones_like(signal)                   # output shape == input

    def step():
        a = Tensor(support, requires_grad=True)
        b = Tensor(signal, requires_grad=True)
        F.einsum(subscripts, a, b).backward(g)

    def reference():
        np.einsum(subscripts, support, signal)
        np.einsum("bcnt,bcmt->nm", g, signal)
        np.einsum("bcnt,nm->bcmt", g, support)

    meta = {"subscripts": subscripts, "support": list(support.shape),
            "signal": list(signal.shape)}
    return step, meta, reference


_CASES = [
    ("conv2d_backward", _case_conv2d_backward),
    ("conv2d_backward_strided", _case_conv2d_backward_strided),
    ("conv2d_forward", _case_conv2d_forward),
    ("col2im", _case_col2im),
    ("split_backward", _case_split_backward),
    ("unbind_backward", _case_unbind_backward),
    ("gru_step", _case_gru_step),
    ("stgcn_train_step", _case_stgcn_train_step),
    ("einsum_graph_conv", _case_einsum_graph_conv),
]


def bench_kernels(mode: str = "quick", bus: EventBus | None = None,
                  cases: list[str] | None = None) -> list[KernelTiming]:
    """Run the kernel suite; returns per-case reference/fast timings.

    ``mode`` selects the workload preset (see :data:`BENCH_MODES`).  Every
    case is timed twice over identical inputs — once inside
    :func:`repro.nn.kernels.use_reference_kernels` (or through the case's
    own reference closure) and once on the fast engine — and emits a :class:`repro.obs.KernelBench` event on ``bus``
    (the ambient bus when None).  ``cases`` restricts the run to a subset
    of case names.
    """
    if mode not in BENCH_MODES:
        raise ValueError(f"unknown bench mode {mode!r}; "
                         f"expected one of {sorted(BENCH_MODES)}")
    sizes = BENCH_MODES[mode]
    bus = bus if bus is not None else get_bus()
    selected = _CASES if cases is None else [
        (name, make) for name, make in _CASES if name in set(cases)]
    if cases is not None and len(selected) != len(set(cases)):
        known = {name for name, _ in _CASES}
        raise ValueError(f"unknown bench case(s) {sorted(set(cases) - known)}")

    results = []
    for name, make in selected:
        rng = np.random.default_rng(7)
        step, meta, *own_reference = make(sizes, rng)
        if own_reference:
            reference = _best_of(own_reference[0], sizes["repeats"])
        else:
            with K.use_reference_kernels():
                reference = _best_of(step, sizes["repeats"])
        fast = _best_of(step, sizes["repeats"])
        timing = KernelTiming(name=name, reference_seconds=reference,
                              fast_seconds=fast, meta=meta)
        bus.emit(KernelBench(name=name, mode=mode,
                             reference_seconds=reference,
                             fast_seconds=fast, speedup=timing.speedup,
                             meta=meta))
        results.append(timing)
    return results


def timings_to_record(timings: list[KernelTiming], mode: str,
                      suite: str = "kernels") -> dict:
    """JSON-safe record of one suite run (the ``BENCH_<suite>.json`` body)."""
    return {
        "suite": suite,
        "mode": mode,
        "numpy": np.__version__,
        "timings": [
            {"name": t.name,
             "reference_seconds": round(t.reference_seconds, 6),
             "fast_seconds": round(t.fast_seconds, 6),
             "speedup": round(t.speedup, 2),
             "meta": t.meta}
            for t in timings
        ],
    }


def write_bench_json(timings: list[KernelTiming], path: str | Path,
                     mode: str, suite: str = "kernels") -> None:
    """Write :func:`timings_to_record` to ``path`` (pretty-printed)."""
    record = timings_to_record(timings, mode, suite=suite)
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def render_timings(timings: list[KernelTiming]) -> str:
    """Fixed-width table of the suite results for terminal output."""
    header = (f"{'case':<26} {'reference':>12} {'fast':>12} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for t in timings:
        lines.append(f"{t.name:<26} {t.reference_seconds * 1e3:>10.2f}ms "
                     f"{t.fast_seconds * 1e3:>10.2f}ms {t.speedup:>7.2f}x")
    return "\n".join(lines)
