"""Fast self-test of the benchmark, apart from the package's own tests.

    python3 bench/selftest.py

1. Runs every workload at tiny sizes, untraced and traced, and requires
   correct output, no failed operation, and exactly the metrics BENCHMARK.json
   names, each with its unit.
2. Feeds the checks deliberately wrong outputs and requires each to object.
3. Runs the command in a directory that holds only BENCHMARK.json and the
   benchmark's own files, and requires it to fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def command(spec: dict, *extra: str) -> list[str]:
    cmd = list(spec["command"])
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    return cmd + list(extra)


def run_workloads(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                command(spec, "--workload", workload, "--seed", "1", "--seconds", "0.5",
                        "--trace", str(trace), "--tiny"),
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{where} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
            expect(result["correct"] is True, f"{where}: checks failed:\n{proc.stderr}")
            expect(result["failed"] == 0 and result["attempted"] >= 1, f"{where}: {result}")
            units = {m["name"]: m["unit"] for m in wanted}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == units, f"{where}: metrics {got} != {units}")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{where}: a metric value is not a number")
            print(f"ok  {where}: {result['attempted']} operations")


def checks_object() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np

    import checks
    from ubss import load_config, pipeline, run_experiment

    cfg = load_config(ROOT / "configs" / "experiment2.cfg")
    good = run_experiment(cfg, write_files=False, verbose=False)
    checks.experiment(good, cfg)

    def objects(label, **changes):
        bad = dataclasses.replace(good, **changes)
        try:
            checks.experiment(bad, cfg)
        except checks.CheckFailed as exc:
            print(f"ok  wrong {label} caught: {exc}")
            return
        expect(False, f"a wrong {label} passed the checks")

    separated = good.separated.copy()
    row = int(np.flatnonzero(good.pairs[:, 0] >= 0)[0])
    separated[row, good.pairs[row, 0]] += 1e-6
    objects("separated sample", separated=separated)
    est = dataclasses.replace(good.estimated, ratios=good.estimated.ratios + 1e-4)
    objects("ratio set", estimated=est)
    report = dataclasses.replace(good.report,
                                 coefficients=[c * 0.999 for c in good.report.coefficients])
    objects("coefficient", report=report)
    objects("wrong-pair count", wrong_pair_count=good.wrong_pair_count + 1)
    mixtures = good.mixtures.copy()
    mixtures[row, 1] *= 1 + 1e-9
    objects("mixture", mixtures=mixtures)

    # a separation that skips half the active samples, leaving them at zero
    skipped = np.flatnonzero(good.pairs[:, 0] >= 0)[::2]
    pairs, separated = good.pairs.copy(), good.separated.copy()
    pairs[skipped], separated[skipped] = -1, 0.0
    objects("set of separated samples", pairs=pairs, separated=separated)
    # a ratio step that drops half the active samples
    eps = good.activity_eps
    ratios = pipeline.compute_ratios(good.mixtures, eps)[::2]
    objects("histogram", histogram=pipeline.build_histogram(ratios, cfg.quantum))


def bare_directory_fails(spec: dict) -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        command(spec, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"),
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "the command succeeded without the package")
    expect("metrics" not in proc.stdout, "the command printed a result without the package")
    print(f"ok  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


if __name__ == "__main__":
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_workloads(benchmark)
    checks_object()
    bare_directory_fails(benchmark)
    print("selftest passed")
