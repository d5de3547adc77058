"""Fingerprint of the simulated worlds.

For METR-LA ``ci`` and PeMSD7 ``bench`` (corridors), PeMSD3 ``ci`` (a
radial network) and PeMSD7(M) ``ci`` (weekdays only), at seed offset 0
and built fresh (no cache), ``world_fingerprint.json`` records the
number of missing readings and the sum and sum of squares of density,
speed and flow.  A
performance change to the simulator must leave the worlds as they are:
the counts match exactly and the moments to rounding.

Regenerate the record (only when a change is *meant* to alter the
worlds, with a :data:`~repro.datasets.CACHE_FORMAT_VERSION` bump, and
say so in the change log) with::

    PYTHONPATH=src python tests/datasets/test_world_fingerprint.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_dataset

RECORD = Path(__file__).with_name("world_fingerprint.json")
WORLDS = [("metr-la", "ci"), ("pemsd7", "bench"), ("pemsd3", "ci"),
          ("pemsd7m", "ci")]
RTOL = 1e-12


def fingerprint(name: str, scale: str) -> dict[str, float | int]:
    sim = load_dataset(name, scale=scale, cache=False).simulation
    record: dict[str, float | int] = {
        "missing": int(sim.missing_mask.sum())}
    for field in ("density", "speed", "flow"):
        values = getattr(sim, field)
        record[f"{field}_sum"] = float(values.sum())
        record[f"{field}_sumsq"] = float(np.square(values).sum())
    return record


def test_record_covers_every_world():
    assert sorted(json.loads(RECORD.read_text())) == sorted(
        f"{name}/{scale}" for name, scale in WORLDS)


@pytest.mark.parametrize("name,scale", WORLDS)
def test_world_matches_record(name, scale):
    expected = json.loads(RECORD.read_text())[f"{name}/{scale}"]
    actual = fingerprint(name, scale)
    assert actual["missing"] == expected["missing"]
    for key, value in expected.items():
        np.testing.assert_allclose(actual[key], value, rtol=RTOL, atol=0,
                                   err_msg=f"{name}/{scale} {key}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_world_fingerprint.py --write")
    record = {f"{name}/{scale}": fingerprint(name, scale)
              for name, scale in WORLDS}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {RECORD}")
