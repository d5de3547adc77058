"""Run-to-run spread of the end-to-end metrics of one workload.

    python3 perfbench/spread.py --workload table3-ci --seeds 1-10
    python3 perfbench/spread.py --workload table3-ci --seeds 1-10 --write

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles and the interquartile range
as a share of the median (``statistics.quantiles(values, n=4)``) beside
the bound ``BENCHMARK.json`` sets.  ``--write`` stores the figures under
the workload's key in ``spread.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(config["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
            flush=True)

    summary = {}
    print(f"{'metric':<22} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / mid
        summary[name] = {"median": mid, "q1": q1, "q3": q3,
                         "spread": share, "bound": bounds.get(name),
                         "runs": len(series)}
        print(f"{name:<22} {mid:>11.5g} {q1:>11.5g} {q3:>11.5g} "
              f"{share:>7.2%} {bounds.get(name, float('nan')):>6}")
    if args.write:
        path = HERE / "spread.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        recorded[args.workload] = {"seeds": args.seeds, "metrics": summary}
        path.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
