"""CSV serialization for pipeline artifacts.

Signals are stored one column per channel, one row per sample, with a header
row.  Floats are written with 17 significant digits so a read back reproduces
the exact values; reruns of the same configuration are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .estimation import EstimatedMatrix
from .evaluation import SeparationReport


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_signals(path, signals: np.ndarray) -> None:
    x = np.asarray(signals, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"signals must be 2-D, got shape {x.shape}")
    header = ",".join(f"ch{k + 1}" for k in range(x.shape[1]))
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=header, comments="")


def read_signals(path) -> np.ndarray:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    width = len(lines[0].split(","))
    rows = []
    for num, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}: row {num} has {len(parts)} fields, expected {width}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path}: row {num} has a non-numeric field") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: row {int(bad[0]) + 2} has a non-finite field")
    return x


def write_estimated_matrix(path, est: EstimatedMatrix) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("ratio\n")
        for r in est.ratios:
            fh.write(_fmt(r) + "\n")


def read_estimated_matrix(path) -> EstimatedMatrix:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "ratio":
        raise ValueError(f"{path}: expected a 'ratio' header row")
    ratios = []
    for num, line in enumerate(lines[1:], start=2):
        try:
            ratios.append(float(line))
        except ValueError:
            raise ValueError(f"{path}: row {num} has a non-numeric ratio") from None
    try:
        return EstimatedMatrix(np.array(ratios))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_report(path, report: SeparationReport) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("estimate_idx,true_idx,correlation\n")
        coeffs = iter(report.coefficients)
        for e, t in enumerate(report.permutation):
            if t is None:
                continue
            fh.write(f"{e},{t},{_fmt(next(coeffs))}\n")
