"""The glibc heap policy applied when ``repro.nn`` is imported."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn import heap

SRC = str(Path(__file__).resolve().parents[2] / "src")
BURST_ARRAYS = 8
ARRAY_BYTES = 2 * 1024 * 1024


def burst() -> None:
    """Allocate, touch and free 8 × 2 MiB arrays."""
    arrays = [np.ones(ARRAY_BYTES // 8) for _ in range(BURST_ARRAYS)]
    del arrays


def minor_faults() -> int:
    resource = pytest.importorskip("resource")
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(heap.POLICY != "tuned",
                    reason=f"heap policy is {heap.POLICY!r}, not applied")
def test_freed_buffers_are_reused_without_faults():
    burst()                                   # grows the heap once
    before = minor_faults()
    for _ in range(10):
        burst()
    # 4,066 faults per burst with glibc's default heap, 0 with the policy.
    assert minor_faults() - before < 100


def test_glibc_settings_in_environment_win():
    environ = dict(os.environ, PYTHONPATH=SRC,
                   MALLOC_TRIM_THRESHOLD_=str(64 * 1024 * 1024))
    result = subprocess.run(
        [sys.executable, "-c", "import repro.nn; print(repro.nn.heap.POLICY)"],
        env=environ, capture_output=True, text=True, check=True, timeout=120)
    assert result.stdout.strip() == "env"


@pytest.mark.parametrize("environ, found", [
    ({}, False),
    ({"MALLOC_TRIM_THRESHOLD_": "67108864"}, True),
    ({"MALLOC_MMAP_THRESHOLD_": "16777216"}, True),
    ({"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=67108864"}, True),
    ({"GLIBC_TUNABLES": "glibc.pthread.rseq=0"}, False),
], ids=["none", "trim", "mmap", "tunables", "other-tunables"])
def test_environment_detection(environ, found):
    assert heap._set_by_environment(environ) is found
    if found:
        assert heap._apply(environ) == "env"
