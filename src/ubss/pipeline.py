"""End-to-end experiment pipeline and its individual file-level stages.

run_experiment chains generation, mixing, matrix estimation, separation, and
scoring, writing every artifact to the output directory.  The stage functions
perform the same steps one at a time against CSV files; chaining them
reproduces run_experiment's outputs byte for byte, because both compute
through the same helpers and write every artifact through the same writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import csvio, svgplot
from .config import (
    ExperimentConfig,
    default_activity_eps,
    hop_windows_for_mode,
    random_mixing,
)
from .estimation import (
    EstimatedMatrix,
    RatioHistogram,
    build_histogram,
    compute_ratios,
    estimate_mixing,
    export_bar_graph,
)
from .evaluation import (
    SeparationReport,
    align_and_score,
    count_uncovered,
    max_simultaneous_sources,
)
from .recovery import separate
from .signals import generate_sources, mix, validate_mixing_matrix

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
    output_dir: Path | None


def resolve_mixing(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.mixing is not None:
        return cfg.mixing
    seed = cfg.mixing_seed if cfg.mixing_seed is not None else cfg.th_uwb.seed
    return random_mixing(cfg.th_uwb.n_sources, cfg.mixing_rows, seed)


def _ratio_mixing(cfg: ExperimentConfig) -> np.ndarray:
    """The mixing matrix, checked for the two-channel ratio model that estimates it."""
    mixing = validate_mixing_matrix(resolve_mixing(cfg), ratio_model=True)
    if mixing.shape[0] != 2:
        raise ValueError(f"estimation requires exactly 2 mixture channels, got {mixing.shape[0]}")
    return mixing


def build_sources(cfg: ExperimentConfig) -> np.ndarray:
    windows = hop_windows_for_mode(
        cfg.overlap_mode, cfg.th_uwb.n_sources, cfg.th_uwb.n_chips
    )
    return generate_sources(cfg.th_uwb, cfg.pulses, hop_windows=windows)


def _write_svg(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_artifacts(
    out_dir, *, sources=None, mixtures=None, estimate=None, separated=None, report=None
) -> Path:
    """The one writer of every artifact: writes those given into out_dir.

    estimate is the (histogram, estimated matrix) pair.  Returns out_dir,
    created if missing.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for signals, csv_name, svg_name in (
        (sources, SOURCES_CSV, SOURCES_SVG),
        (mixtures, MIXTURES_CSV, MIXTURES_SVG),
        (separated, SEPARATED_CSV, SEPARATED_SVG),
    ):
        if signals is not None:
            csvio.write_signals(out / csv_name, signals)
            _write_svg(out / svg_name, svgplot.waveform_svg(signals))
    if estimate is not None:
        hist, est = estimate
        export_bar_graph(hist, out / HISTOGRAM_CSV)
        _write_svg(out / HISTOGRAM_SVG, svgplot.bar_graph_svg(hist))
        csvio.write_estimated_matrix(out / MATRIX_CSV, est)
    if report is not None:
        csvio.write_report(out / REPORT_CSV, report)
    return out


def _resolve_eps(cfg: ExperimentConfig, x1: np.ndarray) -> float:
    if cfg.activity_eps is not None:
        return cfg.activity_eps
    return default_activity_eps(x1)


def _estimate(cfg: ExperimentConfig, mixtures: np.ndarray):
    """Activity threshold, ratio histogram and estimated matrix of the mixtures."""
    eps = _resolve_eps(cfg, mixtures[:, 0])
    hist = build_histogram(compute_ratios(mixtures, eps), cfg.quantum)
    return eps, hist, estimate_mixing(hist, cfg.peak_fraction)


def stage_generate(cfg: ExperimentConfig, out_dir) -> np.ndarray:
    sources = build_sources(cfg)
    _write_artifacts(out_dir, sources=sources)
    return sources


def stage_mix(cfg: ExperimentConfig, sources_path, out_dir) -> np.ndarray:
    mixing = _ratio_mixing(cfg)
    mixtures = mix(csvio.read_signals(sources_path), mixing)
    _write_artifacts(out_dir, mixtures=mixtures)
    return mixtures


def stage_estimate(cfg: ExperimentConfig, mixtures_path, out_dir):
    _, hist, est = _estimate(cfg, csvio.read_signals(mixtures_path))
    _write_artifacts(out_dir, estimate=(hist, est))
    return hist, est


def stage_separate(cfg: ExperimentConfig, mixtures_path, matrix_path, out_dir) -> np.ndarray:
    mixtures = csvio.read_signals(mixtures_path)
    est = csvio.read_estimated_matrix(matrix_path)
    separated = separate(mixtures, est, _resolve_eps(cfg, mixtures[:, 0]))
    _write_artifacts(out_dir, separated=separated)
    return separated


def stage_score(sources_path, separated_path, out_dir) -> SeparationReport:
    truth = csvio.read_signals(sources_path)
    report = align_and_score(truth, csvio.read_signals(separated_path))
    _write_artifacts(out_dir, report=report)
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
    mixing = _ratio_mixing(cfg)
    sources = build_sources(cfg)
    mixtures = mix(sources, mixing)
    eps, hist, est = _estimate(cfg, mixtures)
    separated, pairs = separate(mixtures, est, eps, return_pairs=True)
    report = align_and_score(sources, separated)
    wrong = count_uncovered(sources, pairs, report.permutation)
    max_sim = max_simultaneous_sources(sources)

    out = None
    if write_files:
        out = _write_artifacts(
            out_dir if out_dir is not None else cfg.output_dir,
            sources=sources,
            mixtures=mixtures,
            estimate=(hist, est),
            separated=separated,
            report=report,
        )

    if verbose:
        print(f"sources estimated: {est.n_sources}")
        print("ratios: " + ", ".join(f"{r:.4f}" for r in est.ratios))
        coeffs = iter(report.coefficients)
        for e, t in enumerate(report.permutation):
            if t is None:
                print(f"  estimate {e + 1}: unmatched")
            else:
                print(f"  estimate {e + 1} -> source {t + 1}: C = {next(coeffs):.4f}")
        print(f"wrong-pair samples: {wrong} (max simultaneous sources: {max_sim})")

    return ExperimentResult(
        sources=sources,
        mixing=mixing,
        mixtures=mixtures,
        activity_eps=eps,
        histogram=hist,
        estimated=est,
        separated=separated,
        pairs=pairs,
        report=report,
        wrong_pair_count=wrong,
        max_simultaneous=max_sim,
        output_dir=out,
    )
