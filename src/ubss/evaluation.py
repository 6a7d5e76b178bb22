"""Separation quality scoring by correlation against the true sources."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SeparationReport:
    """Matching of estimated columns to true sources with their correlations.

    permutation[e] is the true-source index matched to estimated column e,
    None if the column stayed unmatched (more estimates than sources).
    coefficients holds the signed correlation of every matched pair, ordered
    by estimated column index.
    """

    permutation: list[int | None]
    coefficients: list[float]
    n_sources_estimated: int
    n_sources_true: int


def _centre(v: np.ndarray, column: np.ndarray, name: str, k: int) -> float:
    """Write column k of `name`, centred, into v; return its deviation.

    Refuses NaN, inf and overflow.  A constant column scores 0.0, not its mean's rounding
    residue (below 1e-14 of it), so a column within 1e-13 of flat is scanned for its range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = column.mean()
        np.subtract(column, mean, out=v)
        dev = float(np.sqrt(float(v @ v) / (v.size - 1)))
    if np.isfinite(dev) and dev > 1e-13 * abs(mean):
        return dev
    lo, hi = column.min(), column.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} column {k} holds NaN or inf")
    if lo == hi:
        return 0.0
    if np.isfinite(dev):
        return dev
    raise ValueError(f"{name} column {k} is too large to score: its deviation overflows")


def _correlation_table(truth: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """C = cov(e, t) / (std(e) std(t)) with 1/(T-1) normalisation, 0 if either is flat.

    Each column is centred once, into a copy (the truth into one (n_true, T)
    array, each estimate into one reused buffer), then each entry takes one
    dot product: the float operations of a per-pair centre-and-dot, same bits.
    """
    n_samples, n_true = truth.shape
    rows = np.empty((n_true, n_samples))
    dev_true = [_centre(rows[t], truth[:, t], "truth", t) for t in range(n_true)]
    table = np.zeros((estimates.shape[1], n_true))
    buf = np.empty(n_samples)
    for e in range(estimates.shape[1]):
        dev_est = _centre(buf, estimates[:, e], "estimates", e)
        for t in range(n_true):
            if dev_est != 0.0 and dev_true[t] != 0.0:
                cov = float(buf @ rows[t]) / (n_samples - 1)
                table[e, t] = cov / (dev_est * dev_true[t])
    return table


def align_and_score(truth: np.ndarray, estimates: np.ndarray) -> SeparationReport:
    """Match estimated columns to true sources by largest absolute correlation.

    The greedy matcher repeatedly pairs the globally best remaining |C| (ties
    by lower estimated then lower true index), so constant estimated columns,
    scored 0, are matched last.  Input holding NaN or inf, or fewer than 2
    samples, is refused.
    """
    s = np.asarray(truth, dtype=float)
    y = np.asarray(estimates, dtype=float)
    if s.ndim != 2 or y.ndim != 2:
        raise ValueError("truth and estimates must be 2-D (samples x channels)")
    if s.shape[0] != y.shape[0]:
        raise ValueError(f"sample count mismatch: {s.shape[0]} vs {y.shape[0]}")
    if s.shape[0] < 2:
        raise ValueError("scoring needs at least 2 samples")

    table = _correlation_table(s, y)
    n_est, n_true = table.shape
    matched: dict[int, int] = {}
    for e, t in sorted(np.ndindex(table.shape), key=lambda et: (-abs(table[et]), et)):
        if e not in matched and t not in matched.values():
            matched[e] = t

    permutation: list[int | None] = [matched.get(e) for e in range(n_est)]
    coefficients = [float(table[e, matched[e]]) for e in sorted(matched)]
    return SeparationReport(
        permutation=permutation,
        coefficients=coefficients,
        n_sources_estimated=n_est,
        n_sources_true=n_true,
    )


def _active_counts(s: np.ndarray) -> np.ndarray:
    """Per sample, how many columns of the 2-D, finite sources are nonzero, column by column."""
    if s.ndim != 2:
        raise ValueError(f"sources must be 2-D (samples x sources), got shape {s.shape}")
    counts = np.zeros(s.shape[0], dtype=np.min_scalar_type(s.shape[1]))  # holds N exactly
    for k, column in enumerate(s.T):
        with np.errstate(over="ignore", invalid="ignore"):  # exact test if the square is not finite
            if not (np.isfinite(column @ column) or np.isfinite(column).all()):
                raise ValueError(f"sources column {k} holds NaN or inf")
        counts += (column != 0.0).view(np.uint8)
    return counts


def count_uncovered(
    sources: np.ndarray, pairs: np.ndarray, permutation: list[int | None]
) -> int:
    """Samples whose true active set is not inside the selected base pair.

    pairs, a (T, 2) integer array, holds estimated-column indices; permutation
    (as produced by align_and_score) translates them to true-source indices.
    Counts only samples where a pair was selected; samples with three or more
    simultaneously active sources can never be covered.  Sources must be 2-D and
    finite, and a pair index outside [-1, len(permutation)) is refused.
    """
    s = np.asarray(sources, dtype=float)
    return _count_uncovered(s, _active_counts(s), pairs, permutation)


def _count_uncovered(
    s: np.ndarray, counts: np.ndarray, pairs: np.ndarray, permutation: list[int | None]
) -> int:
    """count_uncovered of the float sources s, given their _active_counts."""
    p = np.asarray(pairs)
    if p.ndim != 2 or p.shape[1] != 2 or not np.issubdtype(p.dtype, np.integer):
        raise ValueError(f"pairs must be a (T, 2) integer array, got shape {p.shape} of {p.dtype}")
    if s.shape[0] != p.shape[0]:
        raise ValueError(f"sample count mismatch: {s.shape[0]} vs {p.shape[0]}")
    n = len(permutation)
    if p.size and not -1 <= p.min() <= p.max() < n:
        raise ValueError(f"pair index {p[(p < -1) | (p >= n)][0]} is outside [-1, {n})")
    # the trailing -1 makes lut[-1] == -1: an unselected slot maps to no source
    lut = np.array([-1 if t is None else int(t) for t in permutation] + [-1], dtype=np.int64)
    rows = np.flatnonzero(p[:, 0] >= 0)
    m = np.take(lut, np.take(p, rows, axis=0))  # np.take: several times faster than p[rows]
    covered = (m >= 0) & (s[rows[:, None], np.maximum(m, 0)] != 0.0)
    covered[:, 1] &= m[:, 1] != m[:, 0]  # a source both slots map to covers once
    return int(np.count_nonzero(counts[rows] > np.add(*covered.T, dtype=np.uint8)))


def max_simultaneous_sources(sources: np.ndarray) -> int:
    """Largest number of sources active at one sample; refuses NaN, inf and non-2-D input."""
    return int(_active_counts(np.asarray(sources, dtype=float)).max(initial=0))
