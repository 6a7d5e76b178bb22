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

_KEYS lists every key; unknown ones are refused, and one left out takes the
default of the object it configures.  n_sources sets the length of
pulse_orders, which defaults to 0, 1, 2, 0, ...  [mixing] matrix is required:
rows are separated by semicolons, entries by whitespace.  Every pulse is
chip_len samples wide and peaks at 1, so a source's gain is set by the scale
of its mixing column.
Without activity_eps every stage derives it as 1e-6 times the largest |x1| it
sees.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signals import OverlapMode, ThUwbConfig, validate_mixing_matrix

ACTIVITY_REL = 1e-6


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    th_uwb: ThUwbConfig
    mixing: np.ndarray
    output_dir: Path
    quantum: float = 1e-4
    peak_fraction: float = 0.1
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
        if not 0.0 < self.quantum < np.inf:
            raise ConfigError(f"quantum must be positive and finite, got {self.quantum}")
        if not 0.0 < self.peak_fraction < 1.0:
            raise ConfigError(f"peak_fraction must lie in (0, 1), got {self.peak_fraction}")
        if self.activity_eps is not None and not 0.0 < self.activity_eps < np.inf:
            raise ConfigError(
                f"activity_eps must be positive and finite, got {self.activity_eps}"
            )


def default_activity_eps(x1: np.ndarray) -> float:
    """Relative activity threshold: 1e-6 times the largest |x1|."""
    peak = float(np.max(np.abs(np.asarray(x1, dtype=float))))
    if peak == 0.0:
        raise ValueError("cannot derive an activity threshold from an all-zero channel")
    return ACTIVITY_REL * peak


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


def _list(cast):
    """Parser of a comma- or space-separated list of cast values."""
    return lambda raw: [cast(tok) for tok in raw.replace(",", " ").split()]


# Every key of a config file and the parser of its value, per section:
# (required keys, optional keys).  It is also the list of known keys.  An
# optional key missing from the file is not passed on, so its default lives
# on the object that checks it (ThUwbConfig, ExperimentConfig).
_KEYS = {
    "signal": (
        {"chip_len": int, "frame_len": int, "total_len": int, "n_sources": int, "seed": int},
        {"occupancy": float, "pulse_orders": _list(int)},
    ),
    "mixing": ({"matrix": parse_matrix}, {}),
    "estimation": ({}, {"quantum": float, "peak_fraction": float, "activity_eps": float}),
    "run": ({"output_dir": Path}, {"overlap_mode": OverlapMode}),
}


def _parse(section: str, key: str, parse, raw: str):
    try:
        return parse(raw)
    except ConfigError as exc:  # parse_matrix names the faulty row itself
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _read(path, seed_override: int | None) -> dict[str, dict]:
    """Every key the file sets, parsed through _KEYS: section -> key -> value."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    unknown = [f"[{name}]" for name in parser.sections() if name not in _KEYS]
    unknown += [f"[{name}] {key}" for name, (req, opt) in _KEYS.items() if name in parser
                for key in parser[name] if key not in req | opt]
    if unknown:
        raise ConfigError(f"config {path} has unknown entries: {', '.join(unknown)}")
    if seed_override is not None and "signal" in parser:
        parser["signal"]["seed"] = str(seed_override)

    values = {}
    for name, (required, optional) in _KEYS.items():
        if required and name not in parser:
            raise ConfigError(f"config {path} is missing the [{name}] section")
        section = parser[name] if name in parser else {}
        missing = [key for key in required if key not in section]
        if missing:
            raise ConfigError(f"[{name}] is missing required key {missing[0]!r}")
        values[name] = {key: _parse(name, key, parse, section[key])
                        for key, parse in (required | optional).items() if key in section}
    return values


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Read an experiment config file; seed_override replaces the file seed."""
    values = _read(path, seed_override)
    signal, run = values["signal"], values["run"]
    n = signal.pop("n_sources")
    if n < 1:
        raise ConfigError(f"[signal] n_sources must be >= 1, got {n}")
    orders = signal.pop("pulse_orders", [k % 3 for k in range(n)])
    if len(orders) != n:
        raise ConfigError(f"[signal] pulse_orders must list {n} values")
    output_dir = run.pop("output_dir")
    try:  # what is left of [run] is the layout's overlap_mode, if the file sets it
        th = ThUwbConfig(**signal, pulse_orders=orders, **run)
    except ValueError as exc:
        raise ConfigError(f"[signal]: {exc}") from None
    return ExperimentConfig(th_uwb=th, mixing=values["mixing"]["matrix"],
                            output_dir=output_dir, **values["estimation"])
