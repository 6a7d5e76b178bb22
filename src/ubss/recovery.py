"""Per-sample source recovery from two mixtures and an estimated matrix.

Every active sample defines a direction angle arctan(x2/x1).  The two
estimated columns whose angles lie closest to it form the base pair; solving
the 2x2 system on that pair yields the pair's source values and every other
source is set to zero for that sample.  Recovered column k carries the source
scaled by its true first-row gain a1k, the inherent scaling of the
column-normalized estimation model.
"""

from __future__ import annotations

import numpy as np

from .estimation import EstimatedMatrix, checked_mixtures

DEGENERATE_TOL = 1e-12


def separate(
    mixtures: np.ndarray,
    est: EstimatedMatrix,
    activity_eps: float,
    return_pairs: bool = False,
):
    """Recover (T, N) source estimates from (T, 2) mixtures.

    Mixtures holding NaN or inf are refused, naming the first such row.
    Samples with max(|x1|, |x2|) <= activity_eps are left all-zero.  With
    return_pairs=True the (T, 2) array of selected column indices is returned
    as well, -1 marking inactive samples.
    """
    x = checked_mixtures(mixtures, activity_eps, "separation")
    if est.n_sources < 2:
        raise ValueError("separation needs at least 2 estimated columns")

    x1, x2 = x[:, 0], x[:, 1]
    active = np.maximum(np.abs(x1), np.abs(x2)) > activity_eps
    out = np.zeros((x.shape[0], est.n_sources))
    pairs = np.full((x.shape[0], 2), -1, dtype=np.int64)

    rows = np.flatnonzero(active)
    if rows.size:
        x1a, x2a = x1[rows], x2[rows]
        nonzero = x1a != 0.0
        ratio = np.divide(x2a, x1a, out=np.zeros_like(x2a), where=nonzero)
        theta = np.arctan(ratio)
        theta[~nonzero] = np.pi / 2
        dist = np.abs(theta[:, None] - np.arctan(est.ratios)[None, :])
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :2]
        i, j = nearest[:, 0], nearest[:, 1]
        a_i, a_j = est.ratios[i], est.ratios[j]
        denom = a_j - a_i
        if np.any(np.abs(denom) < DEGENERATE_TOL):
            raise ValueError("degenerate pair: selected column ratios nearly coincide")
        out[rows, i] = (a_j * x1a - x2a) / denom
        out[rows, j] = (x2a - a_i * x1a) / denom
        pairs[rows, 0] = i
        pairs[rows, 1] = j

    if return_pairs:
        return out, pairs
    return out
