"""Blind separation of sparse pulse signals from two mixture channels.

The method works in two steps.  First the mixing matrix is estimated from the
histogram of quantized mixture ratios x2(t)/x1(t): at samples where only one
source is active the ratio equals that source's column ratio, so the dominant
histogram modes recover the columns and their count.  Second, each active
sample is attributed to the two estimated columns whose direction angles lie
closest to the sample's own angle, and the corresponding 2x2 system is solved
exactly, all other sources being zero at that sample.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    default_activity_eps,
    load_config,
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
from .pipeline import ExperimentResult, run_experiment
from .recovery import column_angles, separate
from .signals import (
    OverlapMode,
    PulseSpec,
    ThUwbConfig,
    generate_sources,
    mix,
    pulse_shape,
    validate_mixing_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EstimatedMatrix",
    "ExperimentConfig",
    "ExperimentResult",
    "OverlapMode",
    "PulseSpec",
    "RatioHistogram",
    "SeparationReport",
    "ThUwbConfig",
    "align_and_score",
    "build_histogram",
    "column_angles",
    "compute_ratios",
    "count_uncovered",
    "default_activity_eps",
    "estimate_mixing",
    "export_bar_graph",
    "generate_sources",
    "load_config",
    "max_simultaneous_sources",
    "mix",
    "pulse_shape",
    "random_mixing",
    "run_experiment",
    "separate",
    "validate_mixing_matrix",
]
