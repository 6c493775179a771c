"""Run the benchmark over several seeds and summarise every metric.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/baseline.json

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, and
writes for each workload and metric the value of every run, the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them and the spread
``(q3 - q1) / median``, together with each run's metadata line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    report = {"git_rev": git_rev(), "seconds": seconds, "trace": args.trace, "workloads": {}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            print(f"{workload} seed {seed}: exit {proc.returncode} after {wall:.1f} s", flush=True)
            if proc.returncode != 0:
                print("\n".join(lines[-5:]) + proc.stderr, file=sys.stderr)
                failures += 1
                continue
            meta = next(json.loads(x[len("perfbench: "):]) for x in lines if x.startswith("perfbench: {"))
            runs.append({"seed": seed, "wall_s": wall, "meta": meta, "result": json.loads(lines[-1])})
        if not runs:
            continue
        names = runs[0]["result"]["metrics"]
        report["workloads"][workload] = {
            "runs": runs,
            "metrics": {
                name: {"unit": names[name]["unit"],
                       **summarise([r["result"]["metrics"][name]["value"] for r in runs])}
                for name in names
            },
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, body in report["workloads"].items():
        for name, m in body["metrics"].items():
            print(f"{workload:11s} {name:45s} median {m['median']:.6g} {m['unit']:14s} spread {m['spread']:.4f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
