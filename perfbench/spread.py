#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload family-batch --seeds 1-10

Runs ``perfbench/run.py --trace 0`` once per seed and prints, per metric,
the median, the quartile distance as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound
from ``BENCHMARK.json``.  A change that claims a gain compares these
figures between the parent and the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from perfbench.stats import relative_iqr  # noqa: E402


def seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {entry["name"]: [] for entry in spec["end_to_end"]}
    for seed in seeds(args.seeds):
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed\n{done.stdout}{done.stderr}", file=sys.stderr)
            return 1
        row = []
        for name, found in result["metrics"].items():
            values[name].append(found["value"])
            row.append(f"{name}={found['value']:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for entry in spec["end_to_end"]:
        series = values[entry["name"]]
        spread = relative_iqr(series) if len(series) > 1 else 0.0
        print(
            f"{entry['name']:<14} median={statistics.median(series):<12.5g} "
            f"iqr/median={spread:.3f} bound={entry['bound']}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
