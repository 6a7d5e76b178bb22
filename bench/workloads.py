"""The four workloads: their set-up, their fixed operations and the checks of each.

A workload's setup(seed, tiny, work_dir) makes its inputs, and
plan(inputs, out_dir) returns the operations that one round runs, in order.
Every file an operation writes goes under out_dir, work_dir / "out", which the
runner empties before each round.  An operation's run() is timed; its
check(result) runs after the round, outside the timed section, and raises
checks.CheckFailed on a wrong output.  An operation fails if run() raises or
its check does.

The package is always reached through the module attributes its own callers
use at call time (`pipeline.separate`, `cli.main`, ...), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import configparser
import contextlib
import gc
import io
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ubss import cli, config, pipeline

import checks

ROOT = Path(__file__).resolve().parent.parent
PAPER_CONFIGS = (ROOT / "configs" / "experiment1.cfg", ROOT / "configs" / "experiment2.cfg")
PAPER_EXTRA_SEEDS = tuple(range(7))
CHAIN_FRAMES = 160  # 160 frames of 644 samples: 103040 samples
LONG_FRAMES = 1600  # 1030400 samples

# N=6 layout shared by blind_long and sim_long.  occupancy 0.25 keeps the
# sources sparse: pulse_orders default to k % 3, so sources k and k+3 share a
# pulse shape, and when two of them fire in the same chip their ratio x2/x1 is
# constant over the whole pulse, a spurious histogram mode.  At occupancy 1.0
# those modes pass peak_fraction and 11 columns are estimated for 6.  The
# column ratios 0.2, 0.5, 0.9, 1.4, 2.0, 3.2 lie on the 1e-4 grid.
LONG_CFG = """\
[signal]
chip_len = 161
frame_len = 644
total_len = {total_len}
n_sources = 6
seed = {seed}
occupancy = 0.25

[mixing]
matrix = 0.5 0.4 0.8 0.5 0.25 0.5 ; 0.1 0.2 0.72 0.7 0.5 1.6

[estimation]
quantum = 1e-4
peak_fraction = 0.1

[run]
overlap_mode = allow_three
output_dir = {out}
"""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


_FAILED = object()


def run_round(ops: list[Op], out_dir: Path, tracer, name: str, tally: Tally):
    """Run every operation once; returns the time and the result of each."""
    # start every round from the same state: no files left to overwrite, no
    # garbage left from the last round's checks
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    gc.collect()
    results, times = [], []
    with tracer.span(name) if tracer else contextlib.nullcontext():
        for op in ops:
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                results.append(op.run())
            except Exception:
                tally.failed += 1
                results.append(_FAILED)
                traceback.print_exc()
            times.append(time.perf_counter() - t0)
    return times, results


def check_round(ops: list[Op], results: list, tally: Tally) -> None:
    """Check each operation's outputs; an operation whose check fails counts as failed."""
    for op, result in zip(ops, results):
        if result is _FAILED:
            continue
        try:
            op.check(result)
        except Exception as exc:  # a wrong output, or one the check cannot even read
            tally.failed += 1
            tally.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")


def _long_config(work_dir: Path, seed: int, tiny: bool):
    frames = 200 if tiny else LONG_FRAMES
    path = work_dir / "long.cfg"
    path.write_text(LONG_CFG.format(total_len=644 * frames, seed=seed, out=work_dir / "out"))
    return config.load_config(path)


# paper_runs: the paper's two simulations with every artifact, as users
# reproduce them.  The seeds are fixed and do not follow --seed: at T=2898 a
# source can stay below peak_fraction on some seeds (see CHANGES.md), and an
# operation that fails only on some seeds would make the failure share
# differ between runs.

def paper_runs_setup(seed: int, tiny: bool, work_dir: Path):
    seeds = (None,) if tiny else (None, *PAPER_EXTRA_SEEDS)
    return [(path.stem, s, config.load_config(path, seed_override=s))
            for s in seeds for path in PAPER_CONFIGS]


def paper_runs_plan(runs, out_dir: Path) -> list[Op]:
    ops = []
    for stem, seed, cfg in runs:
        out = out_dir / f"{stem}-{'shipped' if seed is None else seed}"

        def run(cfg=cfg, out=out):
            return pipeline.run_experiment(cfg, out_dir=out, verbose=False)

        def check(result, cfg=cfg, out=out):
            checks.experiment(result, cfg)
            checks.artifacts(out, result)

        ops.append(Op(f"run {stem} seed={seed}", run, check))
    return ops


# stage_chain: generate -> mix -> estimate -> separate -> score through the CLI,
# each stage reading the CSV the previous one wrote.  The recording is
# experiment1.cfg stretched to 103040 samples, seeded by --seed.

STAGES = ("generate", "mix", "estimate", "separate", "score")


def stage_chain_setup(seed: int, tiny: bool, work_dir: Path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(PAPER_CONFIGS[0])
    parser["signal"]["total_len"] = str(644 * (5 if tiny else CHAIN_FRAMES))
    parser["signal"]["seed"] = str(seed)
    path = work_dir / "chain.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    return path, config.load_config(path)


def stage_chain_plan(inputs, out_dir: Path) -> list[Op]:
    path, cfg = inputs
    memo = {}

    def reference():
        # the pipeline docstring promises that the chained stages reproduce
        # run_experiment; compute it once, in memory, and check it too
        if "ref" not in memo:
            ref = pipeline.run_experiment(cfg, write_files=False, verbose=False)
            checks.experiment(ref, cfg)
            memo["ref"] = ref
        return memo["ref"]

    def check_generate(_):
        ref = reference()
        checks.csv_signals(out_dir / "sources.csv", ref.sources)
        checks.svg_waveform(out_dir / "sources.svg", ref.sources.shape[1])

    def check_mix(_):
        ref = reference()
        sources = np.loadtxt(out_dir / "sources.csv", delimiter=",", skiprows=1, ndmin=2)
        mixtures = checks.csv_signals(out_dir / "mixtures.csv", ref.mixtures)
        checks.mixtures_from_sources(sources, ref.mixing, mixtures)
        checks.svg_waveform(out_dir / "mixtures.svg", 2)

    def check_estimate(_):
        ref = reference()
        checks.ratio_set(ref.estimated.ratios, ref.mixing, cfg.quantum)
        checks.csv_matrix(out_dir / "estimated_matrix.csv", ref.estimated.ratios)
        checks.csv_histogram(out_dir / "histogram.csv", ref.histogram)
        checks.svg_histogram(out_dir / "histogram.svg", len(ref.histogram.bins))

    def check_separate(_):
        ref = reference()
        checks.csv_signals(out_dir / "separated.csv", ref.separated)
        checks.svg_waveform(out_dir / "separated.svg", ref.separated.shape[1])

    def check_score(_):
        ref = reference()
        checks.csv_report(out_dir / "report.csv", ref.report)
        truth = np.loadtxt(out_dir / "sources.csv", delimiter=",", skiprows=1, ndmin=2)
        separated = np.loadtxt(out_dir / "separated.csv", delimiter=",", skiprows=1, ndmin=2)
        checks.report_coefficients(truth, separated, ref.report)

    stage_checks = (check_generate, check_mix, check_estimate, check_separate, check_score)
    ops = []
    for stage, check in zip(STAGES, stage_checks):

        def run(stage=stage):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([stage, str(path), "--out-dir", str(out_dir)])
            if code != 0:
                raise RuntimeError(f"ubss {stage} exited with {code}")

        ops.append(Op(f"ubss {stage}", run, check))
    return ops


# blind_long: only the paper's two steps on given mixtures, as a user with
# real recordings and no ground truth runs them.  The mixtures (and the
# sources, kept for the checks) are made during set-up.

def blind_long_setup(seed: int, tiny: bool, work_dir: Path):
    cfg = _long_config(work_dir, seed, tiny)
    sources = pipeline.build_sources(cfg)
    return cfg, sources, cfg.mixing, pipeline.mix(sources, cfg.mixing)


def blind_long_plan(inputs, out_dir: Path) -> list[Op]:
    cfg, sources, mixing, mixtures = inputs

    def run():
        eps = config.default_activity_eps(mixtures[:, 0])
        hist = pipeline.build_histogram(pipeline.compute_ratios(mixtures, eps), cfg.quantum)
        est = pipeline.estimate_mixing(hist, cfg.peak_fraction)
        separated, pairs = pipeline.separate(mixtures, est, eps, return_pairs=True)
        return eps, hist, est, separated, pairs

    def check(result):
        eps, hist, est, separated, pairs = result
        checks.activity_eps(eps, mixtures)
        checks.histogram_counts(hist, mixtures, eps)
        checks.active_pairs(mixtures, pairs, eps)
        match = checks.ratio_set(est.ratios, mixing, cfg.quantum)
        checks.remix(mixtures, separated, pairs, est.ratios)
        checks.exact_recovery(sources, mixing, mixtures, separated, pairs, est.ratios, match)

    return [Op("estimate and separate", run, check)]


# sim_long: the whole experiment in memory on a long N=6 recording, no files.

def sim_long_setup(seed: int, tiny: bool, work_dir: Path):
    return _long_config(work_dir, seed, tiny)


def sim_long_plan(cfg, out_dir: Path) -> list[Op]:
    def run():
        return pipeline.run_experiment(cfg, write_files=False, verbose=False)

    return [Op("run_experiment in memory", run, lambda r: checks.experiment(r, cfg))]


WORKLOADS = {
    "paper_runs": (paper_runs_setup, paper_runs_plan),
    "stage_chain": (stage_chain_setup, stage_chain_plan),
    "blind_long": (blind_long_setup, blind_long_plan),
    "sim_long": (sim_long_setup, sim_long_plan),
}
