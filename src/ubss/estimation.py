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

from .signals import finite_mixtures

DEGENERATE_TOL = 1e-12  # least gap between estimated ratios: separate divides by it


@dataclass
class RatioHistogram:
    """Counts of quantized mixture ratios keyed by the quantized value; never empty."""

    bins: dict[float, int]
    quantum: float
    active_samples: int

    def __post_init__(self) -> None:
        if not self.bins:
            raise ValueError("empty histogram: no active samples to estimate from")


@dataclass
class EstimatedMatrix:
    """Estimated column ratios, one per detected source, at least DEGENERATE_TOL apart."""

    ratios: np.ndarray

    def __post_init__(self) -> None:
        r = np.atleast_1d(np.asarray(self.ratios, dtype=float))
        if r.ndim != 1 or r.size < 1:
            raise ValueError("need at least one estimated ratio")
        if not np.all(np.isfinite(r)):
            raise ValueError("estimated ratios must be finite")
        with np.errstate(over="ignore"):  # a gap past the largest float is inf
            closest = np.diff(np.sort(r)).min(initial=np.inf)  # between sorted neighbours
        if closest < DEGENERATE_TOL:
            raise ValueError(f"estimated ratios must be pairwise distinct by {DEGENERATE_TOL:g}")
        self.ratios = r

    @property
    def n_sources(self) -> int:
        return int(self.ratios.size)


def checked_mixtures(mixtures: np.ndarray, activity_eps: float, stage: str) -> np.ndarray:
    """mixtures as a finite (T, 2) float array; refuses a bad activity_eps too."""
    x = np.asarray(mixtures, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"{stage} needs exactly 2 mixture channels, got shape {x.shape}")
    if not 0.0 < activity_eps < np.inf:
        raise ValueError(f"activity_eps must be positive and finite, got {activity_eps}")
    return finite_mixtures(x)


def compute_ratios(mixtures: np.ndarray, activity_eps: float) -> np.ndarray:
    """Ratios x2/x1 at samples where |x1| exceeds activity_eps, in time order.

    Mixtures holding NaN or inf are refused, naming the first such row.
    """
    x = checked_mixtures(mixtures, activity_eps, "ratio estimation")
    keep = np.abs(x[:, 0]) > activity_eps
    with np.errstate(over="ignore"):  # an overflow to inf is left to build_histogram to refuse
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
    # estimate_mixing recovers each step n as round(float(n) * quantum / quantum),
    # exact only below 2**51 quanta; beyond 2**62 the int64 cast could also wrap
    big = np.flatnonzero(np.abs(r) >= 2.0**51 * quantum)
    if big.size:
        i = int(big[0])
        raise ValueError(f"ratio {r[i]} at index {i} is too large for quantum {quantum}")
    steps, counts = np.unique(quantize(r, quantum), return_counts=True)
    bins = {float(n) * quantum: int(c) for n, c in zip(steps, counts)}
    return RatioHistogram(bins=bins, quantum=quantum, active_samples=int(r.size))


def estimate_mixing(hist: RatioHistogram, peak_fraction: float) -> EstimatedMatrix:
    """Keep the dominant histogram modes as the estimated column ratios.

    Bins are visited heaviest first, ties going to the lower ratio.  A bin
    not yet absorbed becomes a mode and absorbs its still-unabsorbed
    neighbors one quantum either side, so each bin is absorbed at most once,
    by the first of its neighbors to be visited.  Modes whose merged count
    reaches peak_fraction times the largest survive (ties at the threshold
    are kept).  Ratios come out ordered by descending count, ties by lower
    ratio.
    """
    if not 0.0 < peak_fraction < 1.0:
        raise ValueError(f"peak_fraction must lie in (0, 1), got {peak_fraction}")
    unmerged = {round(key / hist.quantum): count for key, count in hist.bins.items()}
    modes = {}
    for n in sorted(unmerged, key=lambda n: (-unmerged[n], n)):
        if n in unmerged:
            modes[n] = unmerged.pop(n) + unmerged.pop(n - 1, 0) + unmerged.pop(n + 1, 0)
    cutoff = peak_fraction * max(modes.values())
    kept = sorted((-count, n) for n, count in modes.items() if count >= cutoff)
    return EstimatedMatrix(np.array([float(n) * hist.quantum for _, n in kept]))
