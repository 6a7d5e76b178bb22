"""Run every workload on several seeds and record the reference figures.

    python3 bench/spread.py --runs 10 --seconds 15 --out bench/reference.json

For each workload this makes --runs untraced runs, seeds first-seed,
first-seed + 1, ..., and traced runs on the first three seeds.  It records
each end-to-end metric's median, quartiles and spread (the distance between
the quartiles as a share of the median), the tracing overhead (median traced
wall_s over median untraced wall_s, minus one) and each layer's median share
of the traced wall_s.  It prints a table and writes everything to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
E2E = ("wall_s", "setup_s", "peak_rss_mb")
TRACED_RUNS = 3


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--workloads", default="paper_runs,stage_chain,blind_long,sim_long")
    p.add_argument("--out", default=None, help="JSON file for the figures")
    args = p.parse_args()

    report = {"machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "processor": platform.processor() or platform.machine()},
              "runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        plain = [run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = [run(workload, seed, args.seconds, 1) for seed in seeds[:TRACED_RUNS]]
        wall = statistics.median(traced_wall(workload, seed) for seed in seeds[:TRACED_RUNS])
        layers = {k: statistics.median(r["metrics"][k]["value"] for r in traced)
                  for k in traced[0]["metrics"]}
        entry = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in plain],
            "failed": [r["failed"] for r in plain],
            "correct": all(r["correct"] for r in plain + traced),
            "elapsed_s": [r["elapsed_s"] for r in plain],
            "metrics": {m: summary([r["metrics"][m]["value"] for r in plain]) for m in E2E},
            "traced": {
                "wall_s": wall,
                "overhead": wall / statistics.median(
                    r["metrics"]["wall_s"]["value"] for r in plain) - 1,
                "elapsed_s": [r["elapsed_s"] for r in traced],
                "layers": layers,
                "shares": {k: v / wall for k, v in layers.items() if k.endswith(".s")},
            },
        }
        report["workloads"][workload] = entry
        print_entry(workload, entry)
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


def traced_wall(workload: str, seed: int) -> float:
    trace = ROOT / ".bench_out" / "traces" / f"{workload}-seed{seed}.json"
    return json.loads(trace.read_text())["wall_s"]


def print_entry(workload: str, entry: dict) -> None:
    print(f"{workload}: correct={entry['correct']} failed={sum(entry['failed'])} "
          f"elapsed per run {min(entry['elapsed_s']):.1f}-{max(entry['elapsed_s']):.1f} s")
    for name, s in entry["metrics"].items():
        print(f"  {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
              f"  spread {100 * s['spread']:.2f}%")
    traced = entry["traced"]
    print(f"  traced wall_s {traced['wall_s']:.4f}, overhead {100 * traced['overhead']:+.1f}%")
    for name, share in sorted(traced["shares"].items(), key=lambda kv: -kv[1]):
        if share >= 0.005:
            print(f"    {name:40s} {100 * share:5.1f}%")


if __name__ == "__main__":
    sys.exit(main())
