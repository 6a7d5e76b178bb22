"""Mixing-matrix estimation from the ratio of two mixture channels.

At samples where a single source is active the ratio x2(t) / x1(t) equals the
ratio a2i / a1i of that source's mixing column.  Quantizing all active-sample
ratios and keeping the dominant histogram modes therefore recovers the
column ratios and the number of sources at once.  The estimated matrix is the
column-normalized form [1, ..., 1; r_1, ..., r_N].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RatioHistogram:
    """Counts of quantized mixture ratios keyed by the quantized value."""

    bins: dict[float, int]
    quantum: float
    active_samples: int


@dataclass
class EstimatedMatrix:
    """Estimated column ratios, one per detected source."""

    ratios: np.ndarray

    def __post_init__(self) -> None:
        r = np.atleast_1d(np.asarray(self.ratios, dtype=float))
        if r.ndim != 1 or r.size < 1:
            raise ValueError("need at least one estimated ratio")
        if not np.all(np.isfinite(r)):
            raise ValueError("estimated ratios must be finite")
        if np.unique(r).size != r.size:
            raise ValueError("estimated ratios must be pairwise distinct")
        self.ratios = r

    @property
    def n_sources(self) -> int:
        return int(self.ratios.size)


def compute_ratios(mixtures: np.ndarray, activity_eps: float) -> np.ndarray:
    """Ratios x2/x1 at samples where |x1| exceeds activity_eps, in time order."""
    x = np.asarray(mixtures, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"ratio estimation needs exactly 2 mixture channels, got shape {x.shape}")
    if not 0.0 < activity_eps < np.inf:
        raise ValueError(f"activity_eps must be positive and finite, got {activity_eps}")
    keep = np.abs(x[:, 0]) > activity_eps
    return x[keep, 1] / x[keep, 0]


def quantize(values: np.ndarray, quantum: float) -> np.ndarray:
    """Integer multiples of quantum nearest to values, ties away from zero."""
    v = np.asarray(values, dtype=float)
    return (np.floor(np.abs(v) / quantum + 0.5) * np.sign(v)).astype(np.int64)


def build_histogram(ratios: np.ndarray, quantum: float) -> RatioHistogram:
    """Histogram of ratios rounded to the nearest multiple of quantum."""
    r = np.asarray(ratios, dtype=float)
    if r.ndim != 1:
        raise ValueError(f"ratios must be 1-D, got shape {r.shape}")
    if not 0.0 < quantum < np.inf:
        raise ValueError(f"quantum must be positive and finite, got {quantum}")
    bad = np.flatnonzero(~np.isfinite(r))
    if bad.size:
        raise ValueError(f"non-finite ratio at index {int(bad[0])}")
    # quantize casts the step count to int64; 2**62 quanta or more could wrap
    big = np.flatnonzero(np.abs(r) >= 2.0**62 * quantum)
    if big.size:
        i = int(big[0])
        raise ValueError(f"ratio {r[i]} at index {i} is too large for quantum {quantum}")
    steps, counts = np.unique(quantize(r, quantum), return_counts=True)
    bins = {float(n) * quantum: int(c) for n, c in zip(steps, counts)}
    return RatioHistogram(bins=bins, quantum=quantum, active_samples=int(r.size))


def _merged_bins(hist: RatioHistogram) -> list[tuple[int, int]]:
    """Merge bins one quantum apart into the heavier bin.

    Returns (step, count) pairs where step * quantum is the bin key.  Bins are
    visited heaviest first (ties by lower key) and absorb any still-unmerged
    immediate neighbors, so isolated jitter around a mode collapses into it.
    """
    by_step = {int(round(key / hist.quantum)): count for key, count in hist.bins.items()}
    order = sorted(by_step, key=lambda n: (-by_step[n], n))
    consumed: set[int] = set()
    merged = []
    for n in order:
        if n in consumed:
            continue
        consumed.add(n)
        total = by_step[n]
        for m in (n - 1, n + 1):
            if m in by_step and m not in consumed:
                consumed.add(m)
                total += by_step[m]
        merged.append((n, total))
    return merged


def estimate_mixing(hist: RatioHistogram, peak_fraction: float = 0.1) -> EstimatedMatrix:
    """Keep the dominant histogram modes as the estimated column ratios.

    After neighbor merging, bins whose count reaches peak_fraction times the
    largest count survive (ties at the threshold are kept).  Ratios come out
    ordered by descending count, ties by lower ratio.
    """
    if not hist.bins:
        raise ValueError("empty histogram: no active samples to estimate from")
    if not 0.0 < peak_fraction < 1.0:
        raise ValueError(f"peak_fraction must lie in (0, 1), got {peak_fraction}")
    merged = sorted(_merged_bins(hist), key=lambda nc: (-nc[1], nc[0]))
    cutoff = peak_fraction * merged[0][1]
    selected = [(n, c) for n, c in merged if c >= cutoff]
    return EstimatedMatrix(np.array([float(n) * hist.quantum for n, _ in selected]))
