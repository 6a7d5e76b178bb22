"""End-to-end experiment pipeline and its individual file-level stages.

run_experiment chains generation, mixing, matrix estimation, separation, and
scoring, writing every artifact to the output directory.  The stage functions
perform the same steps one at a time: stage_<name>(cfg, *csv_paths) reads the
CSVs it is given and writes into cfg.output_dir.  Chaining them reproduces
run_experiment's outputs byte for byte, because both compute through the
same helpers and write every artifact through the same writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import csvio, svgplot
from .config import ExperimentConfig, default_activity_eps
from .csvio import export_bar_graph
from .estimation import (
    EstimatedMatrix,
    RatioHistogram,
    build_histogram,
    compute_ratios,
    estimate_mixing,
    separate,
)
from .evaluation import (
    SeparationReport,
    _active_counts,
    _count_uncovered,
    align_and_score,
    # run_experiment counts through the private helpers; these stay importable here
    count_uncovered,
    max_simultaneous_sources,
)
from .signals import generate_sources, mix

SOURCES_CSV = "sources.csv"
MIXTURES_CSV = "mixtures.csv"
HISTOGRAM_CSV = "histogram.csv"
MATRIX_CSV = "estimated_matrix.csv"
SEPARATED_CSV = "separated.csv"
REPORT_CSV = "report.csv"
SOURCES_SVG = "sources.svg"
MIXTURES_SVG = "mixtures.svg"
HISTOGRAM_SVG = "histogram.svg"
SEPARATED_SVG = "separated.svg"


@dataclass
class ExperimentResult:
    sources: np.ndarray
    mixing: np.ndarray
    mixtures: np.ndarray
    activity_eps: float
    histogram: RatioHistogram
    estimated: EstimatedMatrix
    separated: np.ndarray
    pairs: np.ndarray
    report: SeparationReport
    wrong_pair_count: int
    max_simultaneous: int


def build_sources(cfg: ExperimentConfig) -> np.ndarray:
    return generate_sources(cfg.th_uwb)


def _write_artifacts(
    out_dir, *, sources=None, mixtures=None, estimate=None, separated=None, report=None
) -> None:
    """The one writer of every artifact: writes those given into out_dir.

    estimate is the (histogram, estimated matrix) pair.  out_dir is created
    if missing.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for signals, csv_name, svg_name in (
        (sources, SOURCES_CSV, SOURCES_SVG),
        (mixtures, MIXTURES_CSV, MIXTURES_SVG),
        (separated, SEPARATED_CSV, SEPARATED_SVG),
    ):
        if signals is not None:
            csvio.write_text(out / svg_name, svgplot.waveform_svg(signals))  # refuses T < 2 first
            csvio.write_signals(out / csv_name, signals)
    if estimate is not None:
        hist, est = estimate
        export_bar_graph(hist, out / HISTOGRAM_CSV)
        csvio.write_text(out / HISTOGRAM_SVG, svgplot.bar_graph_svg(hist))
        csvio.write_estimated_matrix(out / MATRIX_CSV, est)
    if report is not None:
        csvio.write_report(out / REPORT_CSV, report)


def print_summary(est=None, report=None, wrong: int | None = None, max_sim: int = 0) -> None:
    """The one printer of the run, estimate and score summaries: prints the parts given."""
    if est is not None:
        print(f"sources estimated: {est.n_sources}")
        print("ratios: " + ", ".join(f"{r:.4f}" for r in est.ratios))
    if report is not None:
        coeffs = iter(report.coefficients)
        for e, t in enumerate(report.permutation):
            match = ": unmatched" if t is None else f" -> source {t + 1}: C = {next(coeffs):.4f}"
            print(f"  estimate {e + 1}{match}")
    if wrong is not None:
        print(f"wrong-pair samples: {wrong} (max simultaneous sources: {max_sim})")


def _estimate(cfg: ExperimentConfig, mixtures: np.ndarray):
    """Activity threshold, ratio histogram and estimated matrix of the mixtures."""
    eps = cfg.activity_eps or default_activity_eps(mixtures[:, 0])
    hist = build_histogram(compute_ratios(mixtures, eps), cfg.quantum)
    return eps, hist, estimate_mixing(hist, cfg.peak_fraction)


def stage_generate(cfg: ExperimentConfig) -> np.ndarray:
    sources = build_sources(cfg)
    _write_artifacts(cfg.output_dir, sources=sources)
    return sources


def stage_mix(cfg: ExperimentConfig, sources_path) -> np.ndarray:
    mixtures = mix(csvio.read_signals(sources_path), cfg.mixing)
    _write_artifacts(cfg.output_dir, mixtures=mixtures)
    return mixtures


def stage_estimate(cfg: ExperimentConfig, mixtures_path):
    _, hist, est = _estimate(cfg, csvio.read_signals(mixtures_path))
    _write_artifacts(cfg.output_dir, estimate=(hist, est))
    print_summary(est)
    return hist, est


def stage_separate(cfg: ExperimentConfig, mixtures_path, matrix_path) -> np.ndarray:
    mixtures = csvio.read_signals(mixtures_path)
    est = csvio.read_estimated_matrix(matrix_path)
    separated = separate(mixtures, est, cfg.activity_eps or default_activity_eps(mixtures[:, 0]))
    _write_artifacts(cfg.output_dir, separated=separated)
    return separated


def stage_score(cfg: ExperimentConfig, sources_path, separated_path) -> SeparationReport:
    truth = csvio.read_signals(sources_path)
    report = align_and_score(truth, csvio.read_signals(separated_path))
    _write_artifacts(cfg.output_dir, report=report)
    print_summary(report=report)
    return report


def run_experiment(
    cfg: ExperimentConfig,
    out_dir=None,
    write_files: bool = True,
    verbose: bool = True,
) -> ExperimentResult:
    """Run the whole pipeline; returns every intermediate product.

    Artifacts (CSV and SVG) land in out_dir, cfg.output_dir by default.
    write_files=False keeps everything in memory, for callers that only need
    the numbers.
    """
    sources = build_sources(cfg)
    mixtures = mix(sources, cfg.mixing)
    eps, hist, est = _estimate(cfg, mixtures)
    separated, pairs = separate(mixtures, est, eps, return_pairs=True)
    report = align_and_score(sources, separated)
    # count_uncovered and max_simultaneous_sources, from one active count
    counts = _active_counts(sources)
    wrong = _count_uncovered(sources, counts, pairs, report.permutation)
    max_sim = int(counts.max(initial=0))

    if write_files:
        _write_artifacts(
            out_dir if out_dir is not None else cfg.output_dir,
            sources=sources,
            mixtures=mixtures,
            estimate=(hist, est),
            separated=separated,
            report=report,
        )

    if verbose:
        print_summary(est, report, wrong, max_sim)

    return ExperimentResult(
        sources=sources,
        mixing=cfg.mixing,
        mixtures=mixtures,
        activity_eps=eps,
        histogram=hist,
        estimated=est,
        separated=separated,
        pairs=pairs,
        report=report,
        wrong_pair_count=wrong,
        max_simultaneous=max_sim,
    )
