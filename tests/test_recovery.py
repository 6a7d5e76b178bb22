from typing import NamedTuple

import numpy as np
import pytest

from ubss import EstimatedMatrix, separate
from ubss.recovery import DEGENERATE_TOL

# Per-sample scalar reference of the vectorized separate(): one angle, one
# base pair and one 2x2 solve at a time.


class BasePair(NamedTuple):
    """Indices of the two estimated columns selected for one sample."""

    i: int
    j: int


def sample_angle(x1: float, x2: float) -> float:
    """Direction angle of one mixture sample; x1 == 0 folds to pi/2."""
    if x1 == 0.0 and x2 == 0.0:
        raise ValueError("inactive sample: both mixture values are zero")
    if x1 == 0.0:
        return float(np.pi / 2)
    return float(np.arctan(x2 / x1))


def select_base_pair(theta_t: float, angles: np.ndarray) -> BasePair:
    """The two column angles nearest theta_t, ties broken by lower index."""
    a = np.asarray(angles, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError(f"base pair selection needs at least 2 column angles, got {a.size}")
    order = np.argsort(np.abs(a - theta_t), kind="stable")
    return BasePair(int(order[0]), int(order[1]))


def solve_pair(est: EstimatedMatrix, pair: BasePair, x1: float, x2: float) -> np.ndarray:
    """Solve x = [1 1; a_i a_j] [s_i; s_j] for one sample, zeros elsewhere."""
    a = est.ratios
    a_i, a_j = float(a[pair.i]), float(a[pair.j])
    denom = a_j - a_i
    if abs(denom) < DEGENERATE_TOL:
        raise ValueError(f"degenerate pair: ratios {a_i} and {a_j} nearly coincide")
    out = np.zeros(est.n_sources)
    out[pair.i] = (a_j * x1 - x2) / denom
    out[pair.j] = (x2 - a_i * x1) / denom
    return out


def test_sample_angle_conventions():
    assert sample_angle(1.0, 1.0) == pytest.approx(np.pi / 4)
    assert sample_angle(1.0, -1.0) == pytest.approx(-np.pi / 4)
    assert sample_angle(0.0, 5.0) == np.pi / 2
    assert sample_angle(0.0, -5.0) == np.pi / 2
    # scale invariance
    assert sample_angle(2.0, 6.0) == sample_angle(1.0, 3.0)
    with pytest.raises(ValueError, match="inactive sample"):
        sample_angle(0.0, 0.0)


def test_select_base_pair_nearest_two():
    angles = np.arctan([0.5, 1.8, 2.0])
    # 1.9 sits between the 1.8 and 2.0 columns, slightly nearer 2.0
    assert select_base_pair(np.arctan(1.9), angles) == (2, 1)
    assert select_base_pair(np.arctan(0.6), angles) == (0, 1)


def test_select_base_pair_tie_prefers_lower_index():
    # dyadic angles so the distances tie exactly
    angles = np.array([0.25, 0.5, 0.75])
    assert select_base_pair(0.375, angles) == (0, 1)
    # exactly on a column: that column first, equidistant flanks -> lower index
    assert select_base_pair(0.5, angles) == (1, 0)


def test_select_base_pair_needs_two_columns():
    with pytest.raises(ValueError, match="at least 2 column angles"):
        select_base_pair(0.0, np.array([0.5]))


def test_solve_pair_inverts_two_by_two():
    est = EstimatedMatrix(ratios=(2.0, 0.5, -0.8))
    s_i, s_j = 1.3, -0.7
    x1 = s_i + s_j
    x2 = 2.0 * s_i + 0.5 * s_j
    out = solve_pair(est, BasePair(0, 1), x1, x2)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(s_i, rel=1e-14)
    assert out[1] == pytest.approx(s_j, rel=1e-14)
    assert out[2] == 0.0


def test_solve_pair_rejects_coincident_ratios():
    est = EstimatedMatrix(ratios=(2.0, 2.0 + 1e-13))
    with pytest.raises(ValueError, match="degenerate pair"):
        solve_pair(est, BasePair(0, 1), 1.0, 1.0)


def test_separate_matches_per_sample_oracle():
    rng = np.random.default_rng(21)
    est = EstimatedMatrix(ratios=(2.0, 0.5, -0.8))
    angles = np.arctan(est.ratios)
    x = rng.normal(size=(300, 2))
    x[rng.choice(300, size=30, replace=False), 0] = 0.0
    x[::50] = 0.0
    eps = 1e-9
    out, pairs = separate(x, est, eps, return_pairs=True)
    assert out.shape == (300, 3)
    assert pairs.shape == (300, 2)
    assert pairs.dtype == np.int64
    for t in range(300):
        x1, x2 = x[t]
        if max(abs(x1), abs(x2)) <= eps:
            assert np.all(out[t] == 0.0)
            assert tuple(pairs[t]) == (-1, -1)
            continue
        pair = select_base_pair(sample_angle(x1, x2), angles)
        assert tuple(pairs[t]) == pair
        assert np.allclose(out[t], solve_pair(est, pair, x1, x2), rtol=1e-14, atol=0.0)


def test_separate_returns_array_only_by_default():
    est = EstimatedMatrix(ratios=(2.0, 0.5))
    out = separate(np.array([[1.0, 1.0]]), est, 1e-9)
    assert isinstance(out, np.ndarray)
    assert out.shape == (1, 2)


def test_separate_recovers_scaled_sources_exactly():
    # two sources, never simultaneously active: recovery is exact up to the
    # first-row gain of each column
    rng = np.random.default_rng(4)
    a = np.array([[0.4, 0.3], [0.8, 0.5]])
    s = np.zeros((200, 2))
    s[:100, 0] = rng.normal(size=100)
    s[100:, 1] = rng.normal(size=100)
    x = s @ a.T
    est = EstimatedMatrix(ratios=tuple(a[1] / a[0]))
    out = separate(x, est, 1e-15)
    assert np.allclose(out, s * a[0], rtol=1e-12, atol=1e-13)


def test_separate_input_validation():
    est = EstimatedMatrix(ratios=(2.0, 0.5))
    with pytest.raises(ValueError, match="exactly 2 mixture channels"):
        separate(np.ones((5, 3)), est, 1e-9)
    with pytest.raises(ValueError, match="at least 2 estimated columns"):
        separate(np.ones((5, 2)), EstimatedMatrix(ratios=(2.0,)), 1e-9)
    # an infinite threshold would leave every sample inactive and all-zero
    for eps in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="activity_eps must be positive and finite"):
            separate(np.ones((5, 2)), est, eps)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("channel", [0, 1])
def test_separate_refuses_non_finite_mixtures(channel, value):
    # unchecked, a NaN sample comes back all-zero with pair (-1, -1), inf as +-inf outputs
    x = np.ones((5, 2))
    x[3, channel] = value
    x[4, 1 - channel] = value
    with pytest.raises(ValueError, match="mixtures row 3 holds NaN or inf"):
        separate(x, EstimatedMatrix(ratios=(2.0, 0.5)), 1e-9)


def test_separate_rejects_near_duplicate_ratios():
    est = EstimatedMatrix(ratios=(2.0, 2.0 + 1e-13, 0.5))
    with pytest.raises(ValueError, match="degenerate pair"):
        separate(np.array([[1.0, 2.0]]), est, 1e-12)


def test_separate_zero_x1_active_sample():
    # x1 == 0 with x2 != 0 folds to the steepest angle and stays solvable
    est = EstimatedMatrix(ratios=(2.0, 0.5))
    out, pairs = separate(np.array([[0.0, 1.0]]), est, 1e-12, return_pairs=True)
    assert tuple(pairs[0]) == (0, 1)
    assert np.isfinite(out).all()
    s_i, s_j = out[0]
    assert s_i + s_j == pytest.approx(0.0, abs=1e-15)
    assert 2.0 * s_i + 0.5 * s_j == pytest.approx(1.0, rel=1e-14)
