"""Kernel benchmark suite: reference vs. optimised engine timings.

The paper's Table III compares per-model computation cost under one shared
framework, which is only honest if the shared kernels are near the numpy
speed-of-light (engine overhead would otherwise dominate the architecture
differences).  This module times the hot kernels both ways in one process
— the pre-optimisation reference paths (``np.add.at`` scatters, uncached
im2col index gathers, per-slice gradient buffers) against the current fast
paths — and reports the speedups that seed the repo's perf trajectory.

Cases
-----
- ``conv2d_backward``     backward through a ``(1, k)`` temporal conv (the
  kernel all four TCN models use) — dominated by the col2im scatter
- ``conv2d_backward_strided`` strided + dilated 3x3 conv backward
- ``conv2d_forward``      repeated forward passes (strided im2col against
  the per-call index-grid gather)
- ``col2im``              the raw scatter kernel in isolation
- ``split_backward``      gated-activation style split + backward
- ``unbind_backward``     T per-step views + backward (RNN input pattern)
- ``gru_step``            one GRU forward+backward over a short sequence
- ``stgcn_train_step``    a full STGCN training step (loss, backward,
  Adam update) on a synthetic graph
- ``einsum_graph_conv``   ``F.einsum`` forward+backward on Graph-WaveNet's
  ``nm,bcmt->bcnt`` propagation against the same three contractions as
  direct ``np.einsum`` calls

A case's reference side is the same case built *and* run inside
:func:`repro.nn.reference.engine` from a generator in the same state (a
graph keeps the backward closures it was built with); ``col2im`` and
``einsum_graph_conv`` bring their own reference step.  Every case times
the reference side first, then the fast one, each best-of ``repeats``
after one warm-up.  The CLI front-end is ``python -m
repro bench kernels`` (use ``--json`` to record ``BENCH_kernels.json``).
See ``docs/performance.md``.
"""

from __future__ import annotations

import copy

import numpy as np

from ..nn import functional as F
from ..nn import kernels as K
from ..nn import reference
from ..nn.tensor import Tensor
from .harness import Suite, best_of

__all__ = ["SUITE"]

#: Per-mode workload sizes.  ``quick`` keeps the whole suite under a few
#: seconds (the tier-1 smoke test runs it); ``full`` is the recorded
#: configuration behind ``BENCH_kernels.json``.
MODES: dict[str, dict] = {
    "quick": dict(repeats=3, batch=4, channels=8, nodes=10, time_steps=12,
                  gru_hidden=16, stgcn_nodes=8, stgcn_batch=4,
                  gwn_batch=4, gwn_channels=8, gwn_nodes=10),
    "full": dict(repeats=5, batch=16, channels=32, nodes=48, time_steps=12,
                 gru_hidden=64, stgcn_nodes=36, stgcn_batch=16,
                 gwn_batch=32, gwn_channels=16, gwn_nodes=58),
}


def _timed(build):
    """Suite case from a ``build(sizes, rng) -> (step, meta[, reference])``
    builder (see the cases section below)."""
    def make(sizes: dict, rng: np.random.Generator):
        with reference.engine():
            step, _, *own_reference = build(sizes, copy.deepcopy(rng))
            reference_seconds = best_of(
                own_reference[0] if own_reference else step,
                sizes["repeats"])
        step, meta, *_ = build(sizes, rng)
        return reference_seconds, best_of(step, sizes["repeats"]), meta

    return make


# --------------------------------------------------------------------- #
# cases — each builds a closure that runs one forward+backward (or the
# isolated kernel) on the engine it was built under, or returns its own
# reference closure as a third element, timed as is.
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
        K.col2im(g_cols, shape, kernel)

    def reference_step():
        reference.col2im(g_cols, shape, kernel)

    meta = {"shape": list(shape), "kernel": list(kernel)}
    return step, meta, reference_step


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
    from ..nn.layers import GRU

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
    from ..nn.optim import Adam

    nodes, batch = sizes["stgcn_nodes"], sizes["stgcn_batch"]
    adjacency = np.eye(nodes) + (rng.random((nodes, nodes)) > 0.6)
    model = create_model("stgcn", nodes, adjacency, in_features=2, seed=0,
                         dtype=np.float64)
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

    def reference_step():
        np.einsum(subscripts, support, signal)
        np.einsum("bcnt,bcmt->nm", g, signal)
        np.einsum("bcnt,nm->bcmt", g, support)

    meta = {"subscripts": subscripts, "support": list(support.shape),
            "signal": list(signal.shape)}
    return step, meta, reference_step


SUITE = Suite(
    name="kernels",
    modes=MODES,
    cases={name: _timed(build) for name, build in [
        ("conv2d_backward", _case_conv2d_backward),
        ("conv2d_backward_strided", _case_conv2d_backward_strided),
        ("conv2d_forward", _case_conv2d_forward),
        ("col2im", _case_col2im),
        ("split_backward", _case_split_backward),
        ("unbind_backward", _case_unbind_backward),
        ("gru_step", _case_gru_step),
        ("stgcn_train_step", _case_stgcn_train_step),
        ("einsum_graph_conv", _case_einsum_graph_conv),
    ]},
    banner=("Kernel benchmark suite (mode={mode}) — "
            "reference np.add.at engine vs fast kernels"),
    help="time the hot kernels against the reference paths",
    seed=7,
)
