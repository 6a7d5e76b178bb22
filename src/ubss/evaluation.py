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
    """Copy column k of `name` into v, centre it in place, return its deviation.

    Refuses NaN, inf and overflow.  A constant column returns 0.0 uncentred, as
    its mean need not equal the constant and the rounding residue must not score.
    """
    v[:] = column
    lo, hi = v.min(), v.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} column {k} holds NaN or inf")
    if lo == hi:
        return 0.0
    with np.errstate(over="ignore"):
        v -= v.mean()
        if np.isfinite(dev := float(np.sqrt(float(v @ v) / (v.size - 1)))):
            return dev
    raise ValueError(f"{name} column {k} is too large to score: its deviation overflows")


def _correlation_table(truth: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """C = cov(e, t) / (std(e) std(t)) with 1/(T-1) normalisation, 0 if either is flat.

    Each column is copied and centred once (the truth into one (n_true, T)
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
