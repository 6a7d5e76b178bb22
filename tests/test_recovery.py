import itertools
import re
import tracemalloc
import warnings
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ubss import EstimatedMatrix, estimation, separate
from ubss.estimation import DEGENERATE_TOL, _checked_mixtures

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


def solve_pair(ratios, pair: BasePair, x1: float, x2: float) -> np.ndarray:
    """Solve x = [1 1; a_i a_j] [s_i; s_j] for one sample, zeros elsewhere."""
    a = np.asarray(ratios, dtype=float)
    a_i, a_j = float(a[pair.i]), float(a[pair.j])
    denom = a_j - a_i
    if abs(denom) < DEGENERATE_TOL:
        raise ValueError(f"degenerate pair: ratios {a_i} and {a_j} nearly coincide")
    out = np.zeros(a.size)
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
    s_i, s_j = 1.3, -0.7
    x1 = s_i + s_j
    x2 = 2.0 * s_i + 0.5 * s_j
    out = solve_pair((2.0, 0.5, -0.8), BasePair(0, 1), x1, x2)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(s_i, rel=1e-14)
    assert out[1] == pytest.approx(s_j, rel=1e-14)
    assert out[2] == 0.0


def test_solve_pair_rejects_coincident_ratios():
    # raw ratios: EstimatedMatrix itself refuses a pair this close
    with pytest.raises(ValueError, match="degenerate pair"):
        solve_pair((2.0, 2.0 + 1e-13), BasePair(0, 1), 1.0, 1.0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_separate_matches_per_sample_oracle(order):
    rng = np.random.default_rng(21)
    est = EstimatedMatrix(ratios=(2.0, 0.5, -0.8))
    angles = np.arctan(est.ratios)
    x = rng.normal(size=(300, 2))
    x[rng.choice(300, size=30, replace=False), 0] = 0.0
    x[::50] = 0.0
    x = np.asarray(x, order=order)
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
        assert np.allclose(out[t], solve_pair(est.ratios, pair, x1, x2), rtol=1e-14, atol=0.0)


def test_separate_returns_array_only_by_default():
    est = EstimatedMatrix(ratios=(2.0, 0.5))
    out = separate(np.array([[1.0, 1.0]]), est, 1e-9)
    assert isinstance(out, np.ndarray)
    assert out.shape == (1, 2)


def test_separate_returns_one_contiguous_column_per_estimate():
    x = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 2.0]])
    out = separate(x, EstimatedMatrix(ratios=(2.0, 0.5)), 1e-9)
    assert out.flags.f_contiguous and not out.flags.c_contiguous


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
    # the estimated matrix refuses them when built, so separate never sees them
    with pytest.raises(ValueError, match="pairwise distinct by 1e-12"):
        EstimatedMatrix(ratios=(2.0, 2.0 + 1e-13, 0.5))
    # ratios DEGENERATE_TOL apart are kept, and their pair still solves
    est = EstimatedMatrix(ratios=(2.0, 2.0 + 2 * DEGENERATE_TOL, 0.5))
    out, pairs = separate(np.array([[1.0, 2.0]]), est, 1e-12, return_pairs=True)
    assert tuple(pairs[0]) == (0, 1)
    assert np.isfinite(out).all()


def test_separate_subnormal_x1_is_vertical_without_a_warning():
    # x2/x1 overflows to inf, whose arctan is the steepest angle, as at x1 == 0;
    # the suite turns the overflow warning into an error
    est = EstimatedMatrix(ratios=(0.5, 2.0))
    out, pairs = separate(np.array([[1e-310, 1.0]]), est, 1e-6, return_pairs=True)
    assert tuple(pairs[0]) == (1, 0)
    s_j, s_i = out[0]
    assert s_i + s_j == pytest.approx(0.0, abs=1e-15)
    assert 2.0 * s_i + 0.5 * s_j == pytest.approx(1.0, rel=1e-14)


def test_separate_zero_x1_active_sample():
    # x1 == 0 with x2 != 0 folds to the steepest angle and stays solvable
    est = EstimatedMatrix(ratios=(2.0, 0.5))
    out, pairs = separate(np.array([[0.0, 1.0]]), est, 1e-12, return_pairs=True)
    assert tuple(pairs[0]) == (0, 1)
    assert np.isfinite(out).all()
    s_i, s_j = out[0]
    assert s_i + s_j == pytest.approx(0.0, abs=1e-15)
    assert 2.0 * s_i + 0.5 * s_j == pytest.approx(1.0, rel=1e-14)


# The estimated matrix's gap rule, and that it is all the 2x2 solve needs.

_GAPS = (0.0, 0.5e-12, 1e-12, 2e-12)


@st.composite
def _ratio_sets(draw, min_size=1):
    """Ratios in [-1, 1] of both signs, well apart or not, some with a near copy
    whose gap lies around DEGENERATE_TOL."""
    base = draw(st.one_of(
        st.lists(st.integers(-8, 8), min_size=min_size, max_size=6, unique=True).map(
            lambda ks: [k / 8 for k in ks]),
        st.lists(st.floats(-1.0, 1.0), min_size=min_size, max_size=6),
    ))
    ratios = list(base)
    for r in base:
        if draw(st.booleans()):
            gap = draw(st.sampled_from(_GAPS))
            ratios.append(r - gap if r > 0 else r + gap)
    return draw(st.permutations(ratios))


def _smallest_gap(ratios) -> float:
    return min((abs(a - b) for a, b in itertools.combinations(ratios, 2)), default=np.inf)


@settings(max_examples=300, deadline=None)
@given(ratios=_ratio_sets())
@example(ratios=[0.25, 0.25])
@example(ratios=[0.0, -0.0])
@example(ratios=[0.0, 0.5e-12])
@example(ratios=[0.0, 1e-12])
@example(ratios=[-1.0, 1.0, -1.0 + 2e-12])
def test_estimated_matrix_accepts_exactly_the_ratios_degenerate_tol_apart(ratios):
    if _smallest_gap(ratios) >= DEGENERATE_TOL:
        assert EstimatedMatrix(ratios=tuple(ratios)).ratios.tolist() == ratios
    else:
        with pytest.raises(ValueError, match="pairwise distinct by 1e-12"):
            EstimatedMatrix(ratios=tuple(ratios))


@settings(max_examples=200, deadline=None)
@given(
    ratios=_ratio_sets(min_size=2),
    x=arrays(float, st.tuples(st.integers(1, 12), st.just(2)), elements=st.floats(-1.0, 1.0)),
    x2_on_axis=st.lists(st.floats(-1.0, 1.0), max_size=4),
    eps=st.sampled_from([1e-300, 1e-12, 1e-6]),
)
def test_separate_solves_every_pair_an_estimated_matrix_can_hold(ratios, x, x2_on_axis, eps):
    # any two ratios the matrix holds are far enough apart for the 2x2 solve,
    # so separate needs no degenerate-pair check of its own
    try:
        est = EstimatedMatrix(ratios=tuple(ratios))
    except ValueError:
        assume(False)
    on_axis = [[x1, x2] for x2 in x2_on_axis for x1 in (0.0, -0.0)]
    mixtures = np.concatenate([x, np.array(on_axis).reshape(-1, 2)])
    out, pairs = separate(mixtures, est, eps, return_pairs=True)
    assert out.shape == (mixtures.shape[0], len(ratios))
    assert np.isfinite(out).all()
    assert ((pairs >= 0) == (np.abs(mixtures).max(axis=1) > eps)[:, None]).all()


def test_separate_refuses_a_ratio_gap_past_the_largest_float():
    # each solve is finite over an inf gap, (1e305 - 1e-3) / inf == 0: a wrong
    # zero that only the gap itself shows
    est = EstimatedMatrix(ratios=(1e308, -1e308))
    x = np.array([[0.0, 0.0], [1e-3, 1e-3], [2.0, -1.0]])
    with pytest.raises(ValueError, match=r"^separated row 1 holds NaN or inf$"):
        separate(x, est, 1e-6)


# Ratios and mixtures up to the largest floats: the solve either stays finite
# or is refused, naming the row; it is never zeroed or left NaN in silence.

_HUGE = (1.7e308, -1.7e308, 1e308, -1e308, 1e300, -1e300, 1e154, 0.0, 1.0, -1.0)


@settings(max_examples=300, deadline=None)
@given(
    ratios=st.lists(st.one_of(st.sampled_from(_HUGE), st.floats(-1.7e308, 1.7e308)),
                    min_size=2, max_size=5),
    x=arrays(float, st.tuples(st.integers(1, 8), st.just(2)),
             elements=st.one_of(st.sampled_from(_HUGE + (3.0, 10.0, 1e-3)),
                                st.floats(-1.7e308, 1.7e308))),
)
@example(ratios=[1e308, -1e308], x=np.array([[3.0, 1.0]]))
@example(ratios=[1e308, 0.0], x=np.array([[10.0, 1.0]]))
def test_separate_returns_finite_values_or_refuses(ratios, x):
    try:
        est = EstimatedMatrix(ratios=tuple(ratios))
    except ValueError:
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = separate(x, est, 1e-300)
        except ValueError as exc:
            match = re.fullmatch(r"separated row (\d+) holds NaN or inf", str(exc))
            assert match, str(exc)
            assert np.abs(x[int(match[1])]).max() > 1e-300  # an active row
            # nothing overflows up to 1e140: |a_j x1 - x2| / |a_j - a_i| <= 2e280 / 1e-12
            assert max(np.abs(ratios).max(), np.abs(x).max()) > 1e140
            return
    assert np.isfinite(out).all()


# One-shot reference of the blocked separate(): every active row's
# intermediates built at once, as separate() did before it solved in blocks.


def one_shot_separate(mixtures, est, activity_eps, return_pairs=False):
    x = _checked_mixtures(mixtures, activity_eps)
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


def _outcome(mixtures, est, eps, block=None):
    """(estimates, pairs) of one call, or its refusal message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if block is None:
                return one_shot_separate(mixtures, est, eps, return_pairs=True)
            with mock.patch.object(estimation, "_BLOCK", block):
                return separate(mixtures, est, eps, return_pairs=True)
        except ValueError as exc:
            return str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    (out, pairs), (want_out, want_pairs) = got, want
    assert out.flags.f_contiguous and want_out.flags.f_contiguous
    assert out.shape == want_out.shape and out.tobytes() == want_out.tobytes()
    assert pairs.dtype == want_pairs.dtype and pairs.tobytes() == want_pairs.tobytes()


_EPS = 1e-6
_VALUES = (0.0, -0.0, 1e-9, -1e-7, 0.25, -1.0, 3.0, 1e308, -1e308)
_RATIOS = (-4.0, -1.0, -0.5, 0.0, 0.2, 0.5, 0.9, 1.4, 2.0, 3.2, 1e308, -1e308, 1e300)


@st.composite
def _blocked_cases(draw):
    """A block size of 1-20 rows and mixtures whose length is often a multiple
    of it, with a silent stretch that can span whole blocks."""
    block = draw(st.integers(1, 20))
    t = block * draw(st.integers(0, 5)) + draw(st.integers(0, block - 1))
    assume(t >= 1)
    x = draw(arrays(float, (t, 2), elements=st.one_of(st.sampled_from(_VALUES),
                                                      st.floats(-10.0, 10.0))))
    lo = draw(st.integers(0, t))
    x[lo:draw(st.integers(lo, t))] = 0.0
    return block, x


@settings(max_examples=300, deadline=None)
@given(case=_blocked_cases(),
       ratios=st.lists(st.one_of(st.sampled_from(_RATIOS), st.floats(-5.0, 5.0)),
                       min_size=2, max_size=6))
@example(case=(4, np.zeros((12, 2))), ratios=[0.5, 2.0])  # every block inactive
@example(case=(3, np.array([[1.0, 2.0]] * 3 + [[0.0, 0.0]] * 6 + [[1.0, -1.0]] * 3)),
         ratios=[0.5, 2.0, -1.0])  # an inactive block between active ones
@example(case=(3, np.array([[1.0, 1.0]] * 7 + [[10.0, 1.0], [3.0, 0.0], [10.0, 1.0]])),
         ratios=[1e308, 0.0])  # the overflow sits in the third block of four
@example(case=(5, np.array([[1.0, 2.0]] * 5 + [[1e308, -1e308]] + [[1.0, 2.0]] * 9)),
         ratios=[2.0, -1e308, 0.5])  # the overflow opens the second of three blocks
def test_blocked_separate_matches_the_one_shot_oracle(case, ratios):
    block, x = case
    try:
        est = EstimatedMatrix(ratios=tuple(ratios))
    except ValueError:
        assume(False)
    _assert_same_outcome(_outcome(x, est, _EPS, block), _outcome(x, est, _EPS))


@pytest.mark.parametrize("block", range(1, 21))
def test_a_refusal_in_a_later_block_names_the_first_failing_row(block):
    # rows 0-29 solve; rows 31 and 37 overflow (a_j * x1 = 1e309); the block
    # holding row 31 is the first failing one whatever the block size
    x = np.tile([[1.0, 1.0]], (40, 1))
    x[30] = 0.0
    x[[31, 37]] = [10.0, 1.0]
    est = EstimatedMatrix(ratios=(1e308, 0.0))
    got = _outcome(x, est, _EPS, block)
    assert got == "separated row 31 holds NaN or inf"
    assert got == _outcome(x, est, _EPS)


def test_separate_allocates_pairs_only_when_asked():
    est = EstimatedMatrix(ratios=(0.2, 0.5, 0.9, 1.4, 2.0, 3.2))
    x = np.random.default_rng(2).normal(size=(2**16, 2))
    peaks = []
    for return_pairs in (False, True):
        tracemalloc.start()
        try:
            separate(x, est, _EPS, return_pairs=return_pairs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the (T, 2) int64 pairs take 1 MB here; the rest of the peak is the same
    assert peaks[1] - peaks[0] >= x.shape[0] * 16


@pytest.mark.parametrize("t", [2**17, 2**19])
def test_separate_needs_the_outputs_plus_one_block(t):
    # every row active, the worst case for a block's temporaries (3.4 MB with
    # numpy 2.4); solved at once, the rows would take 21 MB beyond the outputs
    # at T=2**17 and 84 MB at 2**19
    rng = np.random.default_rng(5)
    x = rng.normal(size=(t, 2))
    est = EstimatedMatrix(ratios=(0.2, 0.5, 0.9, 1.4, 2.0, 3.2))
    tracemalloc.start()
    try:
        out, pairs = separate(x, est, _EPS, return_pairs=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes - pairs.nbytes < 5 * 2**20
