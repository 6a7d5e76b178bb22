"""Artifact output: CSV serialization, and the one writer of every text file.

Signals are stored one column per channel, one row per sample, with a header
row.  Floats are written with 17 significant digits so a read back reproduces
the exact values; reruns of the same configuration are byte-identical.  Signal
files format, and read back, each distinct value once rather than per sample.
"""

from __future__ import annotations

import numpy as np

from .estimation import EstimatedMatrix, RatioHistogram
from .evaluation import SeparationReport


def write_text(path, text: str) -> None:
    """Write text as is, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_lines(path, lines) -> None:
    write_text(path, "\n".join(lines) + "\n")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _format_each(values, fmt: str) -> np.ndarray:
    """fmt % v for every element, formatting each distinct value (by its bits) once."""
    v = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(v.view(np.int64), return_inverse=True)
    text = np.array([fmt % u for u in bits.view(float).tolist()], dtype=object)
    return text[inverse].reshape(v.shape)


def write_signals(path, signals: np.ndarray) -> None:
    x = np.asarray(signals, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"signals must be 2-D, got shape {x.shape}")
    header = ",".join(f"ch{k + 1}" for k in range(x.shape[1]))
    rows = map(",".join, _format_each(x, "%.17g").tolist())
    _write_lines(path, [header, *rows])


def read_signals(path) -> np.ndarray:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    width = lines[0].count(",") + 1
    rows = lines[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    counts = np.array([row.count(",") + 1 for row in rows])
    wrong = np.flatnonzero(counts != width)
    n_ok = int(wrong[0]) if wrong.size else len(rows)
    # every row before the first wrong-width one, split into width fields each
    fields = ",".join(rows[:n_ok]).split(",") if n_ok else []
    parsed = dict.fromkeys(fields)  # in order of first appearance
    for text in parsed:
        try:
            parsed[text] = float(text)
        except ValueError:
            row = fields.index(text) // width + 2
            raise ValueError(f"{path}: row {row} has a non-numeric field") from None
    if wrong.size:
        raise ValueError(f"{path}: row {n_ok + 2} has {counts[n_ok]} fields, expected {width}")
    x = np.fromiter(map(parsed.__getitem__, fields), float, len(fields)).reshape(-1, width)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: row {int(bad[0]) + 2} has a non-finite field")
    return x


def write_estimated_matrix(path, est: EstimatedMatrix) -> None:
    _write_lines(path, ["ratio", *map(_fmt, est.ratios)])


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
    coeffs = iter(report.coefficients)
    rows = [f"{e},{t},{_fmt(next(coeffs))}" for e, t in enumerate(report.permutation)
            if t is not None]
    _write_lines(path, ["estimate_idx,true_idx,correlation", *rows])


def export_bar_graph(hist: RatioHistogram, path) -> None:
    """Write the histogram as CSV rows "ratio,count", ratios ascending."""
    rows = [f"{key:.4f},{hist.bins[key]}" for key in sorted(hist.bins)]
    _write_lines(path, ["ratio,count", *rows])
