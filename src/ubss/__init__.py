"""Blind separation of sparse pulse signals from two mixture channels.

The method works in two steps.  First the mixing matrix is estimated from the
histogram of quantized mixture ratios x2(t)/x1(t): at samples where only one
source is active the ratio equals that source's column ratio, so the dominant
histogram modes recover the columns and their count.  Second, each active
sample is attributed to the two estimated columns whose direction angles lie
closest to the sample's own angle, and the corresponding 2x2 system is solved
exactly, all other sources being zero at that sample.
"""

from .config import ConfigError, ExperimentConfig, load_config
from .estimation import (
    EstimatedMatrix,
    RatioHistogram,
    build_histogram,
    compute_ratios,
    estimate_mixing,
    separate,
)
from .evaluation import SeparationReport, align_and_score
from .pipeline import ExperimentResult, run_experiment
from .signals import OverlapMode, ThUwbConfig, generate_sources, mix

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EstimatedMatrix",
    "ExperimentConfig",
    "ExperimentResult",
    "OverlapMode",
    "RatioHistogram",
    "SeparationReport",
    "ThUwbConfig",
    "align_and_score",
    "build_histogram",
    "compute_ratios",
    "estimate_mixing",
    "generate_sources",
    "load_config",
    "mix",
    "run_experiment",
    "separate",
]
