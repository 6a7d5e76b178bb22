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


def correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Normalized covariance C = cov(x,y) / sqrt(cov(x,x) cov(y,y)).

    Covariances are mean-subtracted with 1/(T-1) normalization.  Zero-variance
    input is rejected.
    """
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 2:
        raise ValueError("correlation needs at least 2 samples")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    denom = float(xv.size - 1)
    cxx = float(xc @ xc) / denom
    cyy = float(yc @ yc) / denom
    if cxx == 0.0 or cyy == 0.0:
        raise ValueError("degenerate signal: zero variance")
    cxy = float(xc @ yc) / denom
    return cxy / (np.sqrt(cxx) * np.sqrt(cyy))


def _correlation_table(truth: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Signed correlations, zero for any pairing with a constant column."""
    n_est, n_true = estimates.shape[1], truth.shape[1]
    table = np.zeros((n_est, n_true))
    est_ok = estimates.std(axis=0) > 0.0
    true_ok = truth.std(axis=0) > 0.0
    for e in range(n_est):
        for t in range(n_true):
            if est_ok[e] and true_ok[t]:
                table[e, t] = correlation(estimates[:, e], truth[:, t])
    return table


def align_and_score(truth: np.ndarray, estimates: np.ndarray) -> SeparationReport:
    """Match estimated columns to true sources by largest absolute correlation.

    The greedy matcher repeatedly pairs the globally best remaining |C| (ties
    by lower estimated then lower true index), so constant estimated columns,
    scored 0, are matched last.
    """
    s = np.asarray(truth, dtype=float)
    y = np.asarray(estimates, dtype=float)
    if s.ndim != 2 or y.ndim != 2:
        raise ValueError("truth and estimates must be 2-D (samples x channels)")
    if s.shape[0] != y.shape[0]:
        raise ValueError(f"sample count mismatch: {s.shape[0]} vs {y.shape[0]}")

    table = _correlation_table(s, y)
    n_est, n_true = table.shape
    matched: dict[int, int] = {}
    free_est = set(range(n_est))
    free_true = set(range(n_true))
    for _ in range(min(n_est, n_true)):
        best = max(
            ((e, t) for e in sorted(free_est) for t in sorted(free_true)),
            key=lambda et: (abs(table[et]), -et[0], -et[1]),
        )
        matched[best[0]] = best[1]
        free_est.remove(best[0])
        free_true.remove(best[1])

    permutation: list[int | None] = [matched.get(e) for e in range(n_est)]
    coefficients = [float(table[e, matched[e]]) for e in sorted(matched)]
    return SeparationReport(
        permutation=permutation,
        coefficients=coefficients,
        n_sources_estimated=n_est,
        n_sources_true=n_true,
    )


def count_uncovered(
    sources: np.ndarray, pairs: np.ndarray, permutation: list[int | None]
) -> int:
    """Samples whose true active set is not inside the selected base pair.

    pairs holds estimated-column indices; permutation (as produced by
    align_and_score) translates them to true-source indices.  Counts only
    samples where a pair was selected; samples with three or more
    simultaneously active sources can never be covered.
    """
    s = np.asarray(sources, dtype=float)
    p = np.asarray(pairs)
    if s.shape[0] != p.shape[0]:
        raise ValueError(f"sample count mismatch: {s.shape[0]} vs {p.shape[0]}")
    lut = np.array([-1 if t is None else int(t) for t in permutation], dtype=np.int64)
    mapped = np.where(p >= 0, lut[np.clip(p, 0, lut.size - 1)], -1)
    active = s != 0.0
    rows = np.flatnonzero(p[:, 0] >= 0)
    leftover = active[rows].copy()
    for col in (0, 1):
        m = mapped[rows, col]
        ok = np.flatnonzero(m >= 0)
        leftover[ok, m[ok]] = False
    return int(np.count_nonzero(leftover.any(axis=1)))


def max_simultaneous_sources(sources: np.ndarray) -> int:
    """Largest number of sources active at one sample."""
    s = np.asarray(sources, dtype=float)
    return int(np.max(np.count_nonzero(s != 0.0, axis=1), initial=0))
