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


_BLOCK = 2**14  # mixture rows per block: at N=6 a block's temporaries stay under 4 MB


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
    x = checked_mixtures(mixtures, activity_eps, "separation")
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
