import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ubss import (
    EstimatedMatrix,
    RatioHistogram,
    build_histogram,
    compute_ratios,
    estimate_mixing,
)
from ubss.estimation import quantize

Q = 1e-4


def test_quantize_rounds_half_away_from_zero():
    # dyadic quantum so the half-way points are exact floats
    vals = np.array([0.125, -0.125, 0.375, -0.375, 0.1249, -0.1249, 0.0])
    out = quantize(vals, 0.25)
    assert out.dtype == np.int64
    assert list(out) == [1, -1, 2, -2, 0, 0, 0]


def test_quantize_exact_grid_points():
    vals = np.array([1.8, 0.5, 2.0, 0.1667, -1.8])
    assert list(quantize(vals, Q)) == [18000, 5000, 20000, 1667, -18000]


def test_build_histogram_counts_and_keys():
    ratios = np.array([1.8, 1.8, 1.80004, 0.5, 0.5, 0.5, 2.0])
    hist = build_histogram(ratios, Q)
    assert hist.quantum == Q
    assert hist.active_samples == 7
    assert hist.bins[0.5] == 3
    assert hist.bins[1.8] == 3  # 1.80004 lands in the 1.8 bin
    assert hist.bins[2.0] == 1
    assert all(isinstance(k, float) for k in hist.bins)


def test_build_histogram_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite ratio at index 1"):
        build_histogram(np.array([1.0, np.nan]), Q)
    with pytest.raises(ValueError, match="1-D"):
        build_histogram(np.ones((2, 2)), Q)
    for quantum in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="quantum must be positive and finite"):
            build_histogram(np.array([1.0]), quantum)


def test_build_histogram_refuses_a_ratio_whose_step_would_wrap():
    # 1e16 / 1e-4 = 1e20 quanta does not fit int64: the cast would wrap it to
    # a wrong-signed key (-922337203685477.6)
    ratios = np.array([0.5] * 10 + [1e16] * 10)
    with pytest.raises(ValueError, match="ratio 1e\\+16 at index 10 is too large"):
        build_histogram(ratios, Q)
    with pytest.raises(ValueError, match="index 1 is too large"):
        build_histogram(np.array([1.0, -(2.0**62)]), 1.0)
    # just below the bound every ratio keeps its sign and magnitude
    hist = build_histogram(np.array([2.0**61, -(2.0**61)]), 1.0)
    assert sorted(hist.bins) == [-(2.0**61), 2.0**61]


def test_estimate_mixing_merges_neighbor_bins():
    # mode at 1.8 with jitter one quantum either side; lone far bin drops out
    ratios = np.concatenate(
        [
            np.full(10, 1.8),
            np.full(3, 1.8 + Q),
            np.full(2, 1.8 - Q),
            np.full(8, 0.5),
            np.full(1, 0.9),
        ]
    )
    est = estimate_mixing(build_histogram(ratios, Q))
    assert est.n_sources == 2
    assert sorted(est.ratios) == pytest.approx([0.5, 1.8], abs=1e-12)


def test_estimate_mixing_merge_consumes_each_bin_once():
    # the heaviest bin absorbs the shared neighbor; the next mode keeps its own
    ratios = np.concatenate(
        [
            np.full(10, 1.8),
            np.full(6, 1.8 + Q),
            np.full(9, 1.8 + 2 * Q),
        ]
    )
    est = estimate_mixing(build_histogram(ratios, Q), peak_fraction=0.5)
    assert est.n_sources == 2
    got = sorted(est.ratios)
    assert got[0] == pytest.approx(1.8, abs=1e-12)
    assert got[1] == pytest.approx(1.8 + 2 * Q, abs=1e-12)


def test_estimate_mixing_peak_fraction_cutoff():
    ratios = np.concatenate([np.full(100, 2.0), np.full(9, 0.7)])
    est = estimate_mixing(build_histogram(ratios, Q), peak_fraction=0.1)
    assert est.n_sources == 1
    est = estimate_mixing(build_histogram(ratios, Q), peak_fraction=0.05)
    assert est.n_sources == 2


def test_estimate_mixing_orders_by_count_then_ratio():
    ratios = np.concatenate([np.full(30, 0.7), np.full(100, 2.0), np.full(30, -1.1)])
    est = estimate_mixing(build_histogram(ratios, Q), peak_fraction=0.3)
    assert list(est.ratios) == pytest.approx([2.0, -1.1, 0.7], abs=1e-12)


def _merged_bins(hist):
    """Reference merge with a consumed set: (step, count) per mode, unsorted.

    Bins are visited heaviest first (ties by lower key) and absorb any
    still-unmerged immediate neighbors; a consumed set keeps each bin in one
    mode.
    """
    by_step = {int(round(key / hist.quantum)): count for key, count in hist.bins.items()}
    order = sorted(by_step, key=lambda n: (-by_step[n], n))
    consumed = set()
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


def _oracle_ratios(hist, peak_fraction):
    merged = sorted(_merged_bins(hist), key=lambda nc: (-nc[1], nc[0]))
    cutoff = peak_fraction * merged[0][1]
    return np.array([float(n) * hist.quantum for n, c in merged if c >= cutoff])


@st.composite
def _chain(draw):
    # adjacent steps whose counts only rise or only fall: the heads alternate
    start = draw(st.integers(-40, 40))
    counts = sorted(draw(st.lists(st.integers(1, 60), min_size=2, max_size=8, unique=True)))
    if draw(st.booleans()):
        counts.reverse()
    return {start + i: c for i, c in enumerate(counts)}


@st.composite
def _histograms(draw):
    quantum = draw(st.sampled_from([1e-4, 0.25]))
    # few distinct counts on a narrow step range: adjacency and equal-count ties
    steps = draw(st.dictionaries(st.integers(-30, 30), st.integers(1, 5), max_size=30))
    for chain in draw(st.lists(_chain(), max_size=3)):
        steps.update(chain)
    if not steps:
        steps = {draw(st.integers(-30, 30)): draw(st.integers(1, 5))}
    bins = {float(n) * quantum: c for n, c in steps.items()}
    return RatioHistogram(bins=bins, quantum=quantum, active_samples=sum(steps.values()))


_PEAK_FRACTIONS = st.one_of(
    st.floats(1e-12, 1e-3),
    st.floats(0.01, 0.99),
    st.floats(0.999, 1.0, exclude_max=True),
)


@settings(max_examples=500, deadline=None)
@given(hist=_histograms(), peak_fraction=_PEAK_FRACTIONS)
@example(hist=RatioHistogram(bins={-0.5: 7}, quantum=0.25, active_samples=7), peak_fraction=0.5)
@example(  # a rising and a falling chain side by side, heads every other step
    hist=RatioHistogram(
        bins={float(n) * 1e-4: c for n, c in zip(range(-4, 7), [1, 2, 3, 4, 5, 9, 8, 7, 6, 5, 4])},
        quantum=1e-4,
        active_samples=54,
    ),
    peak_fraction=1e-9,
)
@example(  # three equal bins in a row: the lowest heads and takes the middle
    hist=RatioHistogram(bins={-0.25: 3, 0.0: 3, 0.25: 3}, quantum=0.25, active_samples=9),
    peak_fraction=0.999,
)
def test_estimate_mixing_matches_the_two_pass_merge(hist, peak_fraction):
    expected = _oracle_ratios(hist, peak_fraction)
    got = estimate_mixing(hist, peak_fraction).ratios
    assert got.tobytes() == expected.tobytes()


def test_estimate_mixing_argument_validation():
    hist = build_histogram(np.array([1.0]), Q)
    with pytest.raises(ValueError, match="empty histogram"):
        estimate_mixing(RatioHistogram(bins={}, quantum=Q, active_samples=0))
    with pytest.raises(ValueError, match="peak_fraction"):
        estimate_mixing(hist, peak_fraction=1.0)


def test_estimated_matrix_shape_and_validation():
    est = EstimatedMatrix(ratios=(2.0, 0.5))
    assert est.n_sources == 2
    assert est.ratios.dtype == float
    assert np.array_equal(est.ratios, [2.0, 0.5])
    with pytest.raises(ValueError, match="at least one"):
        EstimatedMatrix(ratios=())
    with pytest.raises(ValueError, match="finite"):
        EstimatedMatrix(ratios=(1.0, float("inf")))
    with pytest.raises(ValueError, match="distinct"):
        EstimatedMatrix(ratios=(1.0, 1.0))


def test_compute_ratios_keeps_only_denominated_samples():
    x = np.array([[1.0, 2.0], [1e-12, 5.0], [2.0, 1.0], [0.0, 3.0]])
    ratios = compute_ratios(x, activity_eps=1e-9)
    assert ratios == pytest.approx([2.0, 0.5])
    with pytest.raises(ValueError, match="exactly 2 mixture channels"):
        compute_ratios(np.ones((4, 3)), activity_eps=1e-9)
    for eps in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="activity_eps must be positive and finite"):
            compute_ratios(x, activity_eps=eps)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("channel", [0, 1])
def test_compute_ratios_refuses_non_finite_mixtures(channel, value):
    # unchecked, a NaN x1 drops its sample silently and an infinite x1 counts as ratio 0.0
    x = np.ones((5, 2))
    x[3, channel] = value
    x[4, 1 - channel] = value
    with pytest.raises(ValueError, match="mixtures row 3 holds NaN or inf"):
        compute_ratios(x, activity_eps=1e-9)


def test_end_to_end_ratio_recovery_exact():
    # disjointly active sources: every kept sample is single-source, so the
    # histogram modes sit exactly on the quantized column ratios
    rng = np.random.default_rng(11)
    a = np.array([[0.5, 0.4, 0.3], [0.9, 0.2, 0.6]])
    s = np.zeros((600, 3))
    for k in range(3):
        s[200 * k : 200 * k + 120, k] = rng.normal(size=120)
    x = s @ a.T
    est = estimate_mixing(build_histogram(compute_ratios(x, activity_eps=1e-9), Q))
    assert est.n_sources == 3
    assert sorted(est.ratios) == pytest.approx(sorted(a[1] / a[0]), abs=1e-12)

