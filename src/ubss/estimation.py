"""The LM method's two estimation steps on the same two mixture channels.

Mixing matrix: at samples where a single source is active the ratio
x2(t) / x1(t) equals the ratio a2i / a1i of that source's mixing column.
Quantizing all active-sample ratios and keeping the dominant histogram modes
therefore recovers the column ratios and the number of sources at once.  The
estimated matrix is the column-normalized form [1, ..., 1; r_1, ..., r_N].

Sources: every active sample defines a direction angle arctan(x2/x1), pi/2
where x1 = 0 whatever the sign of x2.  The two estimated columns whose angles
lie closest to it form the base pair; solving the 2x2 system on that pair
yields the pair's source values and every other source is set to zero for
that sample.  Recovered column k carries the source scaled by its true
first-row gain a1k, the inherent scaling of the column-normalized model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import finite_mixtures

DEGENERATE_TOL = 1e-12  # least gap between estimated ratios: separate divides by it
_BLOCK = 2**14  # mixture rows per block: at N=6 a block's temporaries stay under 4 MB


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


def _checked_mixtures(mixtures: np.ndarray, activity_eps: float) -> np.ndarray:
    """mixtures as a finite (T, 2) float array, checked before the activity_eps
    that may have been derived from them."""
    x = np.asarray(mixtures, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"expected exactly 2 mixture channels, got shape {x.shape}")
    finite_mixtures(x)
    if not 0.0 < activity_eps < np.inf:
        raise ValueError(f"activity_eps must be positive and finite, got {activity_eps}")
    return x


def compute_ratios(mixtures: np.ndarray, activity_eps: float) -> np.ndarray:
    """Ratios x2/x1 at samples where |x1| exceeds activity_eps, in time order.

    Mixtures holding NaN or inf are refused, naming the first such row.
    """
    x = _checked_mixtures(mixtures, activity_eps)
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
    # estimate_mixing recovers each step n as round(float(n) * quantum / quantum),
    # exact only below 2**51 quanta; beyond 2**62 the int64 cast could also wrap.
    # NaN fails the comparison too, so one scan finds the first offender of either kind
    ok = np.abs(r) < 2.0**51 * quantum
    if not ok.all():
        i = int(ok.argmin())
        if not np.isfinite(r[i]):
            raise ValueError(f"non-finite ratio at index {i}")
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


def separate(
    mixtures: np.ndarray,
    est: EstimatedMatrix,
    activity_eps: float,
    return_pairs: bool = False,
):
    """Recover (T, N) source estimates from (T, 2) mixtures.

    The estimates are column-major, which changes no value.  Mixtures holding
    NaN or inf are refused, naming the first such row, and so is a sample whose
    solve overflows the float range.  Samples with max(|x1|, |x2|) <=
    activity_eps are left all-zero.  With return_pairs=True the (T, 2) array of
    selected column indices is returned as well, -1 marking inactive samples.

    Every sample is solved on its own, so the rows are solved in blocks of a
    fixed size, in order: memory is the outputs plus one block's temporaries.
    A refusal names the first failing row; earlier blocks may by then have
    been written into the local result, but nothing is returned.
    """
    x = _checked_mixtures(mixtures, activity_eps)
    if est.n_sources < 2:
        raise ValueError(f"separation needs at least 2 estimated columns, got {est.n_sources}")

    n = x.shape[0]
    angles = np.arctan(est.ratios)
    out = np.zeros((est.n_sources, n))  # row k is column k of the column-major result
    flat = out.ravel()
    pairs = np.full((n, 2), -1, dtype=np.int64) if return_pairs else None
    for lo in range(0, n, _BLOCK):
        x1, x2 = x[lo:lo + _BLOCK, 0], x[lo:lo + _BLOCK, 1]
        rows = np.flatnonzero((np.abs(x1) > activity_eps) | (np.abs(x2) > activity_eps))
        x1a, x2a = x1[rows], x2[rows]
        with np.errstate(over="ignore"):  # x2/x1 may overflow to inf: arctan(inf) is pi/2
            theta = np.arctan(np.divide(x2a, x1a, out=np.full_like(x2a, np.inf), where=x1a != 0.0))
        dist = np.abs(theta[:, None] - angles[None, :])
        i, j = np.argsort(dist, axis=1, kind="stable")[:, :2].T
        del dist  # not held through the solve
        a_i, a_j = est.ratios[i], est.ratios[j]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            denom = a_j - a_i  # |denom| >= 1e-12: EstimatedMatrix keeps its ratios that far apart
            s_i = (a_j * x1a - x2a) / denom
            s_j = (x2a - a_i * x1a) / denom
        # a gap past the largest float divides to a wrong zero, so denom is checked too
        finite = np.isfinite(s_i) & np.isfinite(s_j) & np.isfinite(denom)
        if not finite.all():
            raise ValueError(f"separated row {lo + rows[finite.argmin()]} holds NaN or inf")
        rows += lo
        flat[i * n + rows] = s_i  # a flat index scatters faster than out[i, rows]
        flat[j * n + rows] = s_j
        if return_pairs:
            pairs[rows, 0], pairs[rows, 1] = i, j

    if return_pairs:
        return out.T, pairs
    return out.T
