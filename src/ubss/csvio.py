"""Artifact output: CSV serialization, and the one writer of every text file.

Signals are stored one column per channel, one row per sample, with a header
row.  Floats are written with 17 significant digits so a read back reproduces
the exact values; reruns of the same configuration are byte-identical.  Sparse
signals repeat rows (silence, and one pulse shape per source), so signal files
are formatted, and read back, one distinct row at a time rather than per sample:
the writer groups rows by a lexsort of their columns' bits, and the reader
splits the file's bytes on newlines and parses each distinct line once.  A
signal file is ASCII text with rows ending in \n or \r\n; the estimated
matrix's one-column ratio file is read through the same byte path and parser.
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


def write_signals(path, signals: np.ndarray) -> None:
    x = np.atleast_1d(np.asarray(signals, dtype=float))
    if x.ndim != 2 or x.size == 0:
        raise ValueError(
            f"signals must be 2-D with at least one row and one column, got shape {x.shape}")
    header = ",".join(f"ch{k + 1}" for k in range(x.shape[1]))
    # rows grouped by their bits, so -0.0 and 0.0 stay apart; the columns are
    # read in place, and a group starts wherever any column changes
    bits = x.T.view(np.int64)
    order = np.lexsort(bits)
    starts = np.zeros(len(order), bool)
    starts[0] = True
    for column in bits:
        sorted_column = column[order]
        starts[1:] |= sorted_column[1:] != sorted_column[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    fmt = ",".join(["%.17g"] * x.shape[1])
    text = np.array([fmt % tuple(row) for row in x[order[starts]].tolist()], dtype=object)
    _write_lines(path, [header, *text[inverse].tolist()])


# what str.splitlines also breaks a line at: with none of these, and every
# \r followed by \n, splitting the bytes on \n gives the same rows
_OTHER_LINE_BREAKS = b"\v\f\x1c\x1d\x1e"


def _lines(path, kind: str) -> list[bytes]:
    """The rows of a CSV file, header first, split from its bytes at each newline."""
    with open(path, "rb") as fh:
        data = fh.read()
    if (not data.isascii() or any(c in data for c in _OTHER_LINE_BREAKS)
            or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))):
        raise ValueError(f"{path}: not a {kind} CSV: expected ASCII text with rows "
                         "ending in \\n or \\r\\n")
    rows = data.split(b"\n")
    if not rows[-1]:
        del rows[-1]  # the empty piece after a final newline
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows


def _parse(path, rows: list[bytes], width: int, field: str) -> np.ndarray:
    """The data rows (header removed) as a column-major float table of `width` columns."""
    if not rows:
        raise ValueError(f"{path}: no data rows")
    # each distinct line is checked and parsed once, in order of first
    # appearance, so the first bad one found is also the first bad row;
    # float() strips the \r that ends a \r\n row
    code = dict.fromkeys(rows)
    table = []
    for n, line in enumerate(code):
        fields = line.split(b",")
        if len(fields) != width:
            raise ValueError(
                f"{path}: row {rows.index(line) + 2} has {len(fields)} fields, expected {width}")
        try:
            table.append(list(map(float, fields)))
        except ValueError:
            raise ValueError(
                f"{path}: row {rows.index(line) + 2} has a non-numeric {field}") from None
        code[line] = n
    table = np.array(table)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        line = list(code)[bad[0]]
        raise ValueError(f"{path}: row {rows.index(line) + 2} has a non-finite {field}")
    order = np.fromiter(map(code.__getitem__, rows), np.intp, len(rows))
    return np.take(table.T, order, axis=1).T  # column-major, like the signals the core builds


def read_signals(path) -> np.ndarray:
    rows = _lines(path, "signal")
    width = rows.pop(0).count(b",") + 1  # the header
    return _parse(path, rows, width, "field")


def write_estimated_matrix(path, est: EstimatedMatrix) -> None:
    _write_lines(path, ["ratio", *map(_fmt, est.ratios)])


def read_estimated_matrix(path) -> EstimatedMatrix:
    rows = _lines(path, "ratio")
    if rows.pop(0).removesuffix(b"\r") != b"ratio":
        raise ValueError(f"{path}: expected a 'ratio' header row")
    ratios = _parse(path, rows, 1, "ratio")[:, 0]
    try:
        return EstimatedMatrix(ratios)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_report(path, report: SeparationReport) -> None:
    coeffs = iter(report.coefficients)
    rows = [f"{e},{t},{_fmt(next(coeffs))}" for e, t in enumerate(report.permutation)
            if t is not None]
    _write_lines(path, ["estimate_idx,true_idx,correlation", *rows])


def _ratio_decimals(quantum: float) -> int:
    """Decimals that print bins one quantum apart as different ratios: the
    least d >= 4 with 10**-d <= quantum (1 / 10**d is correctly rounded)."""
    d = 4
    while 1 / 10**d > quantum:
        d += 1
    return d


def export_bar_graph(hist: RatioHistogram, path) -> None:
    """Write the histogram as CSV rows "ratio,count", ratios ascending."""
    d = _ratio_decimals(hist.quantum)
    rows = [f"{key:.{d}f},{hist.bins[key]}" for key in sorted(hist.bins)]
    _write_lines(path, ["ratio,count", *rows])
