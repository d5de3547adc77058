"""glibc heap policy: keep freed multi-MB numpy buffers in the heap.

A train step allocates and frees the same few-MB activation and gradient
buffers hundreds of times.  With glibc's defaults each free hands the
memory back to the kernel — buffers above the (dynamic) mmap threshold
are unmapped, and the heap top is trimmed once 128 KiB are free — so the
next allocation of the same size page-faults every page back in.  On
PeMSD7 at 58 sensors that cost DCRNN ~150,000 minor faults and ~300 ms of
kernel time per step (``docs/performance.md``, "Heap policy").

Importing :mod:`repro.nn` applies the policy once, through
``mallopt``:

- ``M_MMAP_THRESHOLD`` is pinned at 32 MiB, the most glibc's own dynamic
  rule can reach on 64-bit, so buffers up to that size come from the heap;
- ``M_TRIM_THRESHOLD`` is set to 1 GiB, so freed heap memory is reused
  instead of returned to the kernel.

Both are always set together: either call alone switches off glibc's
dynamic threshold, which is worse than the default.  The policy leaves
the heap alone where ``mallopt`` does not exist (macOS, Windows) or
fails, and when the environment already carries glibc's own settings
(``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or a
``glibc.malloc`` entry in ``GLIBC_TUNABLES``).  :data:`POLICY` records
which case applied.
"""

from __future__ import annotations

import ctypes
import os
from typing import Mapping

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "POLICY"]

#: Allocations up to this size come from the heap (glibc's 64-bit maximum
#: of its dynamic mmap threshold); larger ones are still mapped fresh.
MMAP_THRESHOLD = 32 * 1024 * 1024
#: Freed heap memory is kept for reuse up to this much.
TRIM_THRESHOLD = 1024 ** 3

# mallopt parameter numbers from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_GLIBC_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _set_by_environment(environ: Mapping[str, str]) -> bool:
    """Whether glibc's own heap settings are present in ``environ``."""
    return (any(name in environ for name in _GLIBC_VARIABLES)
            or "glibc.malloc" in environ.get("GLIBC_TUNABLES", ""))


def _apply(environ: Mapping[str, str]) -> str:
    if _set_by_environment(environ):
        return "env"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return "unsupported"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success.  The trim threshold is set only once
    # the mmap threshold took (glibc's trim call itself cannot fail).
    if (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1
            or mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 1):
        return "unsupported"
    return "tuned"


#: ``"tuned"`` (both thresholds set), ``"env"`` (glibc settings found in
#: the environment, heap untouched) or ``"unsupported"`` (no ``mallopt``).
POLICY = _apply(os.environ)
