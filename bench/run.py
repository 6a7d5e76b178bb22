"""Benchmark of the ubss package: one workload per process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/.  The
process imports the package and makes the workload's inputs, and times that
set-up here and in four fresh interpreters (--setup-only), keeping the median.
It then runs one warm-up round of the workload's fixed operations and then whole
rounds, back to back, until their timed total reaches S seconds.  After each
round, outside the timed section, every operation's outputs are checked.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s, setup_s and peak_rss_mb.  With
--trace 1 every public function the package's pipeline and CLI call is wrapped
in a span, the metrics are the per-layer medians over the timed rounds, and
the spans are written to .bench_out/traces/.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5  # this process's set-up and four in fresh interpreters
TINY_SEED = 1  # short recordings estimate the N=6 layout right on this seed
WORKLOAD_NAMES = ("paper_runs", "stage_chain", "blind_long", "sim_long")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help=f"inputs a few frames long and seed {TINY_SEED}, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up time and exit, without running the workload")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_setup_times(args, n: int) -> list[float]:
    """Set-up time of the workload in n fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(n):
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in ("src/ubss/__init__.py", "configs/experiment1.cfg", "configs/experiment2.cfg"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing; run from the root of a ubss checkout")

    # one BLAS thread, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    seed = TINY_SEED if args.tiny else args.seed
    work_dir = OUT / f"work-{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    sys.path.insert(0, str(ROOT / "src"))

    try:
        # set-up: importing numpy and the package, loading the config, making the inputs
        t0 = time.perf_counter()
        from workloads import WORKLOADS, Tally, check_round, run_round
        setup, plan = WORKLOADS[args.workload]
        inputs = setup(seed, args.tiny, work_dir)
        setup_times = [time.perf_counter() - t0]
        if args.setup_only:
            print(setup_times[0])
            return 0

        import resource
        import statistics

        import spans

        if not args.trace:
            setup_times += fresh_setup_times(args, SETUP_REPEATS - 1)
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        out_dir = work_dir / "out"
        ops = plan(inputs, out_dir)

        # the warm-up round is run and checked like the others, not timed
        tally = Tally()
        _, results = run_round(ops, out_dir, tracer, "warmup", tally)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_round(ops, results, tally)
        op_s = [[] for _ in ops]  # per operation, one time per round
        while sum(map(sum, op_s)) < args.seconds:
            times, results = run_round(ops, out_dir, tracer, "round", tally)
            check_round(ops, results, tally)
            for op_times, t in zip(op_s, times):
                op_times.append(t)
        del results
        # each operation's median over the rounds, summed: a burst of noise
        # on a shared machine moves one operation's time, not the round's
        wall_s = sum(statistics.median(times) for times in op_s)
        round_s = [sum(r) for r in zip(*op_s)]

        if tracer:
            tracer.uninstall()
            trace_dir = OUT / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(trace_dir / f"{args.workload}-seed{seed}.json",
                        {"workload": args.workload, "seed": seed, "wall_s": wall_s,
                         "round_s": round_s})
            metrics = {name: {"value": value, "unit": spans.unit(name)}
                       for name, value in tracer.per_layer("round").items()}
        else:
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line, times in collections.Counter(tally.problems).items():
        print(f"bench: check failed ({times}x): {line}", file=sys.stderr)
    print("bench: rounds " + " ".join(f"{r:.3f}" for r in round_s), file=sys.stderr)
    print(f"bench: {args.workload} seed={seed} rounds={len(round_s)} "
          f"wall_s={wall_s:.4f} trace={args.trace}", file=sys.stderr)
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
