"""Per-sample source recovery from two mixtures and an estimated matrix.

Every active sample defines a direction angle arctan(x2/x1), pi/2 where
x1 = 0 whatever the sign of x2.  The two estimated columns whose angles lie
closest to it form the base pair; solving the 2x2 system on that pair yields
the pair's source values and every other source is set to zero for that
sample.  Recovered column k carries the source scaled by its true first-row
gain a1k, the inherent scaling of the column-normalized estimation model.
"""

from __future__ import annotations

import numpy as np

from .estimation import EstimatedMatrix, checked_mixtures


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
    """
    x = checked_mixtures(mixtures, activity_eps, "separation")
    if est.n_sources < 2:
        raise ValueError(f"separation needs at least 2 estimated columns, got {est.n_sources}")

    x1, x2 = x[:, 0], x[:, 1]
    rows = np.flatnonzero((np.abs(x1) > activity_eps) | (np.abs(x2) > activity_eps))
    x1a, x2a = x1[rows], x2[rows]
    with np.errstate(over="ignore"):  # x2/x1 may overflow to inf: arctan(inf) is pi/2
        theta = np.arctan(np.divide(x2a, x1a, out=np.full_like(x2a, np.inf), where=x1a != 0.0))
    dist = np.abs(theta[:, None] - np.arctan(est.ratios)[None, :])
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :2]
    i, j = nearest.T
    a_i, a_j = est.ratios[i], est.ratios[j]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        denom = a_j - a_i  # |denom| >= 1e-12: EstimatedMatrix keeps its ratios that far apart
        s_i = (a_j * x1a - x2a) / denom
        s_j = (x2a - a_i * x1a) / denom
    # a gap past the largest float divides to a wrong zero, so denom is checked too
    finite = np.isfinite(s_i) & np.isfinite(s_j) & np.isfinite(denom)
    if not finite.all():
        raise ValueError(f"separated row {rows[finite.argmin()]} holds NaN or inf")
    n = x.shape[0]
    out = np.zeros((est.n_sources, n))  # row k is column k of the column-major result
    out.ravel()[i * n + rows] = s_i  # a flat index scatters faster than out[i, rows]
    out.ravel()[j * n + rows] = s_j
    pairs = np.full((n, 2), -1, dtype=np.int64)
    pairs[rows, 0], pairs[rows, 1] = i, j

    if return_pairs:
        return out.T, pairs
    return out.T
