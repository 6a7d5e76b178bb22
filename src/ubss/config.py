"""Experiment configuration: file format, defaults, and derived settings.

Config files are flat key-value text with section headers, for example:

    [signal]
    chip_len = 161
    frame_len = 644
    total_len = 2898
    n_sources = 3
    seed = 11
    occupancy = 1.0
    pulse_orders = 0, 1, 2

    [mixing]
    matrix = 0.4 0.6 0.3 ; 0.8 0.1 0.5

    [estimation]
    quantum = 1e-4
    peak_fraction = 0.1

    [run]
    overlap_mode = at_most_two
    output_dir = out/exp1

Matrix rows are separated by semicolons, entries by whitespace.  The matrix
value "random" draws a reproducible matrix instead (optional key: seed).
Every pulse is chip_len samples wide.  [run] overlap_mode (default
at_most_two) joins the [signal] values in the ThUwbConfig layout, which
checks that at_most_two has enough chips.  Unknown sections and keys are
refused.  activity_eps may be set to an absolute threshold; by default every
stage derives it as 1e-6 times the largest |x1| it sees.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signals import OverlapMode, PulseSpec, ThUwbConfig, validate_mixing_matrix

DEFAULT_QUANTUM = 1e-4
DEFAULT_PEAK_FRACTION = 0.1
ACTIVITY_REL = 1e-6
SEED_ENV_VAR = "UBSS_SEED"


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    th_uwb: ThUwbConfig
    pulses: list[PulseSpec]
    mixing: np.ndarray
    output_dir: Path
    quantum: float = DEFAULT_QUANTUM
    peak_fraction: float = DEFAULT_PEAK_FRACTION
    activity_eps: float | None = None

    def __post_init__(self) -> None:
        try:
            self.mixing = validate_mixing_matrix(self.mixing)
        except ValueError as exc:
            raise ConfigError(f"[mixing] matrix: {exc}") from None
        if self.mixing.shape[1] != self.th_uwb.n_sources:
            raise ConfigError(
                f"[mixing] matrix has {self.mixing.shape[1]} columns"
                f" for {self.th_uwb.n_sources} sources"
            )
        if len(self.pulses) != self.th_uwb.n_sources:
            raise ConfigError(
                f"[signal] {len(self.pulses)} pulse specs for {self.th_uwb.n_sources} sources"
            )
        if not self.quantum > 0.0:
            raise ConfigError(f"quantum must be positive, got {self.quantum}")
        if not 0.0 < self.peak_fraction < 1.0:
            raise ConfigError(f"peak_fraction must lie in (0, 1), got {self.peak_fraction}")
        if self.activity_eps is not None and not self.activity_eps > 0.0:
            raise ConfigError(f"activity_eps must be positive, got {self.activity_eps}")


def default_activity_eps(x1: np.ndarray) -> float:
    """Relative activity threshold: 1e-6 times the largest |x1|."""
    peak = float(np.max(np.abs(np.asarray(x1, dtype=float))))
    if peak == 0.0:
        raise ValueError("cannot derive an activity threshold from an all-zero channel")
    return ACTIVITY_REL * peak


def random_mixing(n_sources: int, seed: int) -> np.ndarray:
    """Reproducible random 2 x n_sources mixing matrix with separated column ratios.

    Entries are uniform in [0.1, 1.0); columns are redrawn until all pairwise
    first-row-normalized ratios differ by at least 0.05, keeping the ratio
    histogram modes distinguishable; such a draw is a valid mixing matrix.
    """
    rng = np.random.default_rng([seed, 0xA])
    a = rng.uniform(0.1, 1.0, size=(2, n_sources))
    for _ in range(1000):
        ratios = a[1] / a[0]
        bad = None
        for i in range(n_sources):
            for j in range(i + 1, n_sources):
                if abs(ratios[i] - ratios[j]) < 0.05:
                    bad = j
                    break
            if bad is not None:
                break
        if bad is None:
            return a
        a[:, bad] = rng.uniform(0.1, 1.0, size=2)
    raise ConfigError("could not draw a mixing matrix with separated column ratios")


def parse_matrix(text: str) -> np.ndarray:
    """Parse semicolon-separated rows of whitespace-separated numbers."""
    rows = []
    for r, chunk in enumerate(text.split(";")):
        entries = chunk.split()
        if not entries:
            raise ConfigError(f"matrix row {r + 1} is empty")
        try:
            rows.append([float(e) for e in entries])
        except ValueError as exc:
            raise ConfigError(f"matrix row {r + 1}: {exc}") from None
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError("matrix rows have unequal lengths")
    return np.array(rows)


_KNOWN_KEYS = {
    "signal": {"chip_len", "frame_len", "total_len", "n_sources", "seed", "occupancy",
               "pulse_orders", "pulse_amplitudes"},
    "mixing": {"matrix", "seed"},
    "estimation": {"quantum", "peak_fraction", "activity_eps"},
    "run": {"overlap_mode", "output_dir"},
}


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"[{section.name}] is missing required key {key!r}")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section.name}] {key} = {raw!r}: {exc}") from None


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Read an experiment config file; seed_override replaces the file seed."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    unknown = [f"[{name}]" for name in parser.sections() if name not in _KNOWN_KEYS]
    unknown += [
        f"[{name}] {key}"
        for name, known in _KNOWN_KEYS.items() if name in parser
        for key in parser[name] if key not in known
    ]
    if unknown:
        raise ConfigError(f"config {path} has unknown entries: {', '.join(unknown)}")
    for name in ("signal", "run"):
        if name not in parser:
            raise ConfigError(f"config {path} is missing the [{name}] section")
    sig = parser["signal"]
    seed = seed_override if seed_override is not None else _get(sig, "seed", int, required=True)
    layout = {key: _get(sig, key, int, required=True)
              for key in ("chip_len", "frame_len", "total_len", "n_sources")}
    layout["occupancy"] = _get(sig, "occupancy", float, default=1.0)
    run = parser["run"]
    mode_raw = _get(run, "overlap_mode", str, default=OverlapMode.AT_MOST_TWO.value)
    try:
        mode = OverlapMode(mode_raw)
    except ValueError:
        valid = ", ".join(m.value for m in OverlapMode)
        raise ConfigError(f"[run] overlap_mode must be one of {valid}, got {mode_raw!r}") from None
    try:
        th = ThUwbConfig(**layout, seed=seed, overlap_mode=mode)
    except ValueError as exc:
        raise ConfigError(f"[signal]: {exc}") from None

    orders = _get(sig, "pulse_orders", _int_list, default=[k % 3 for k in range(th.n_sources)])
    amplitudes = _get(sig, "pulse_amplitudes", _float_list, default=[1.0] * th.n_sources)
    if len(orders) != th.n_sources or len(amplitudes) != th.n_sources:
        raise ConfigError(
            f"[signal] pulse_orders/pulse_amplitudes must list {th.n_sources} values"
        )
    try:
        pulses = [PulseSpec(order=o, amplitude=amp) for o, amp in zip(orders, amplitudes)]
    except ValueError as exc:
        raise ConfigError(f"[signal]: {exc}") from None

    mx = parser["mixing"] if "mixing" in parser else {}
    raw = mx.get("matrix", "random").strip()
    draw_seed = _get(mx, "seed", int, default=seed)
    if raw.lower() == "random":
        mixing = random_mixing(th.n_sources, draw_seed)
    else:
        try:
            mixing = parse_matrix(raw)
        except ConfigError as exc:
            raise ConfigError(f"[mixing] matrix: {exc}") from None

    est = parser["estimation"] if "estimation" in parser else {}

    out_dir = Path(_get(run, "output_dir", str, required=True))

    return ExperimentConfig(
        th_uwb=th,
        pulses=pulses,
        mixing=mixing,
        output_dir=out_dir,
        quantum=_get(est, "quantum", float, default=DEFAULT_QUANTUM),
        peak_fraction=_get(est, "peak_fraction", float, default=DEFAULT_PEAK_FRACTION),
        activity_eps=_get(est, "activity_eps", float),
    )
