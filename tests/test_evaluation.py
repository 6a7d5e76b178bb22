import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubss import align_and_score, count_uncovered, max_simultaneous_sources
from ubss.evaluation import _correlation_table


def correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Normalized covariance C = cov(x,y) / sqrt(cov(x,x) cov(y,y)).

    Covariances are mean-subtracted with 1/(T-1) normalization.  Zero-variance
    input is rejected.
    """
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 2:
        raise ValueError("correlation needs at least 2 samples")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    denom = float(xv.size - 1)
    cxx = float(xc @ xc) / denom
    cyy = float(yc @ yc) / denom
    if cxx == 0.0 or cyy == 0.0:
        raise ValueError("degenerate signal: zero variance")
    cxy = float(xc @ yc) / denom
    return cxy / (np.sqrt(cxx) * np.sqrt(cyy))


def _oracle_table(truth, est):
    """The scorer's table, one correlation() call per pair; 0 beside a constant column."""
    table = np.zeros((est.shape[1], truth.shape[1]))
    for e in range(est.shape[1]):
        for t in range(truth.shape[1]):
            x, y = est[:, e], truth[:, t]
            if np.ptp(x) != 0.0 and np.ptp(y) != 0.0:
                table[e, t] = correlation(x, y)
    return table


def _signals_with_correlations(table, n=64, seed=0):
    """Truth/estimate columns whose correlation matrix equals `table`.

    table[e, t] is the wanted correlation of estimate e with true source t.
    Columns are built from zero-mean orthonormal basis vectors, so the wanted
    correlations hold to float rounding; each row needs norm <= 1.
    """
    table = np.asarray(table, dtype=float)
    n_est, n_true = table.shape
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, n_true + n_est))
    base -= base.mean(axis=0)
    q, _ = np.linalg.qr(base)
    truth = q[:, :n_true]
    spare = q[:, n_true:]
    est = truth @ table.T
    for e in range(n_est):
        rest = 1.0 - float(table[e] @ table[e])
        assert rest >= 0.0
        est[:, e] += np.sqrt(rest) * spare[:, e]
    return truth, est


def _best_total_permutation(truth, est):
    """Brute-force matching that maximizes the total |C|; needs n_est <= n_true."""
    n_est, n_true = est.shape[1], truth.shape[1]
    table = np.abs(np.corrcoef(est.T, truth.T)[:n_est, n_est:])
    best = max(
        permutations(range(n_true), n_est),
        key=lambda perm: sum(table[e, t] for e, t in enumerate(perm)),
    )
    return list(best)


def test_correlation_basic_properties():
    rng = np.random.default_rng(2)
    x = rng.normal(size=500)
    assert correlation(x, x) == pytest.approx(1.0, abs=1e-12)
    assert correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)
    assert correlation(x, 3.5 * x + 2.0) == pytest.approx(1.0, abs=1e-12)
    y = rng.normal(size=500)
    c = correlation(x, y)
    assert abs(c) <= 1.0 + 1e-12
    assert correlation(y, x) == pytest.approx(c, abs=1e-15)


def test_correlation_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        correlation(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="at least 2 samples"):
        correlation(np.ones(1), np.ones(1))
    with pytest.raises(ValueError, match="zero variance"):
        correlation(np.ones(5), np.arange(5.0))


def test_align_matches_constructed_correlations():
    table = np.array([[0.9, 0.1], [0.2, -0.8]])
    truth, est = _signals_with_correlations(table)
    report = align_and_score(truth, est)
    assert report.permutation == [0, 1]
    assert report.coefficients[0] == pytest.approx(0.9, abs=1e-12)
    assert report.coefficients[1] == pytest.approx(-0.8, abs=1e-12)
    assert report.n_sources_estimated == 2
    assert report.n_sources_true == 2


def test_align_greedy_tie_breaks_deterministically():
    # identical columns everywhere: every |C| ties exactly, the greedy order
    # must still come out fixed (lower estimate, then lower true index)
    rng = np.random.default_rng(5)
    col = rng.normal(size=80)
    truth = np.column_stack([col, col])
    est = np.column_stack([col, col])
    report = align_and_score(truth, est)
    assert report.permutation == [0, 1]


def test_align_exhaustive_beats_greedy_on_adversarial_table():
    # greedy locks in the single largest entry and strands the others, while
    # the best total |C| pairs both estimates the other way
    table = np.array([[0.63, 0.595], [0.56, 0.0]])
    truth, est = _signals_with_correlations(table)
    report = align_and_score(truth, est)
    assert report.permutation == [0, 1]
    assert report.coefficients == pytest.approx([0.63, 0.0], abs=1e-12)
    assert _best_total_permutation(truth, est) == [1, 0]


def test_align_exhaustive_agrees_with_greedy_when_clear():
    rng = np.random.default_rng(8)
    for _ in range(20):
        truth = rng.normal(size=(60, 3))
        est = truth[:, rng.permutation(3)] + 0.01 * rng.normal(size=(60, 3))
        greedy = align_and_score(truth, est)
        assert greedy.permutation == _best_total_permutation(truth, est)


def test_align_more_estimates_than_sources():
    table = np.array([[0.9, 0.0], [0.0, 0.9], [0.3, 0.3]])
    truth, est = _signals_with_correlations(table)
    report = align_and_score(truth, est)
    assert report.permutation == [0, 1, None]
    assert len(report.coefficients) == 2
    assert report.coefficients == pytest.approx([0.9, 0.9], abs=1e-12)


def test_align_more_sources_than_estimates():
    table = np.array([[0.1, 0.9, 0.2]])
    truth, est = _signals_with_correlations(table)
    report = align_and_score(truth, est)
    assert report.permutation == [1]
    assert _best_total_permutation(truth, est) == [1]


def test_align_scaled_permuted_copies_score_one():
    rng = np.random.default_rng(9)
    truth = rng.normal(size=(200, 3))
    est = truth[:, [2, 0, 1]] * np.array([1.5, -2.0, 0.7])
    report = align_and_score(truth, est)
    assert report.permutation == [2, 0, 1]
    assert np.abs(report.coefficients) == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert report.coefficients[1] < 0.0


def test_align_flat_column_scored_zero_and_matched_last():
    rng = np.random.default_rng(10)
    truth = rng.normal(size=(100, 2))
    est = np.column_stack([truth[:, 1], np.zeros(100)])
    report = align_and_score(truth, est)
    assert report.permutation == [1, 0]
    assert report.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert report.coefficients[1] == 0.0


def _repeated_max_matching(table):
    """Greedy matching by rescanning the free pairs for the best |C| each step."""
    n_est, n_true = table.shape
    matched = {}
    free_est, free_true = set(range(n_est)), set(range(n_true))
    for _ in range(min(n_est, n_true)):
        best = max(
            ((e, t) for e in sorted(free_est) for t in sorted(free_true)),
            key=lambda et: (abs(table[et]), -et[0], -et[1]),
        )
        matched[best[0]] = best[1]
        free_est.remove(best[0])
        free_true.remove(best[1])
    return [matched.get(e) for e in range(n_est)]


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    entries=st.lists(st.sampled_from([0.0, -0.0, 0.3, -0.3, 0.5, 0.9, -0.9, 1.0]),
                     min_size=36, max_size=36),
)
def test_align_matches_like_a_rescan_of_the_free_pairs(shape, entries):
    # few distinct |C| values, so ties are the rule and the order is pinned
    table = np.array(entries[: shape[0] * shape[1]]).reshape(shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("ubss.evaluation._correlation_table", lambda s, y: table)
        report = align_and_score(np.zeros((2, shape[1])), np.zeros((2, shape[0])))
    expected = _repeated_max_matching(table)
    assert report.permutation == expected
    assert report.coefficients == [table[e, t] for e, t in enumerate(expected) if t is not None]


def test_align_constant_columns_scored_exactly_zero_and_matched_last():
    # a constant column's mean is often not exactly the constant, so a
    # std > 0 test passed 29 of these 36 and scored rounding residue
    for n in (3, 7, 10, 11, 100, 1001):
        for c in (0.1, 0.3, 1 / 3, 0.7, 1e-3, 2.9):
            rng = np.random.default_rng(n)
            truth = rng.normal(size=(n, 2))
            flat = np.full(n, c)
            report = align_and_score(truth, np.column_stack([truth[:, 1], flat]))
            assert report.permutation == [1, 0], (n, c)
            assert report.coefficients[1] == 0.0, (n, c)
            report = align_and_score(np.column_stack([flat, truth[:, 0]]),
                                     np.column_stack([-2.0 * truth[:, 0], truth[:, 1]]))
            assert report.permutation == [1, 0], (n, c)
            assert report.coefficients[1] == 0.0, (n, c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["truth", "estimates"])
def test_align_refuses_non_finite_input(side, bad):
    rng = np.random.default_rng(11)
    for base in (rng.normal(size=50), np.zeros(50)):
        truth = rng.normal(size=(50, 3))
        est = truth[:, [2, 0, 1]].copy()
        signals = truth if side == "truth" else est
        signals[:, 1] = base
        signals[17, 1] = bad
        with pytest.raises(ValueError, match=rf"^{side} column 1 holds NaN or inf$"):
            align_and_score(truth, est)


@pytest.mark.parametrize(
    "probe",
    [
        [1e308, 1e308, 0.0, 5.0],  # the mean overflows: C read nan
        [1e200, -1e200, 0.0, 5.0],  # v @ v overflows: C read -0.0 with a RuntimeWarning
    ],
)
@pytest.mark.parametrize("side", ["truth", "estimates"])
def test_align_refuses_a_column_too_large_to_score(side, probe):
    ramp = np.column_stack([np.arange(1.0, 5.0), [4.0, 1.0, 3.0, 2.0]])
    signals = {"truth": ramp.copy(), "estimates": ramp.copy()}
    signals[side][:, 1] = probe
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{side} column 1 is too large to score"):
            align_and_score(signals["truth"], signals["estimates"])


def test_align_input_validation():
    good = np.ones((10, 2)) + np.arange(10)[:, None]
    with pytest.raises(ValueError, match="must be 2-D"):
        align_and_score(good[:, 0], good)
    with pytest.raises(ValueError, match="sample count mismatch"):
        align_and_score(good, good[:5])
    with pytest.raises(ValueError, match="at least 2 samples"):
        align_and_score(good[:1], good[:1])


@st.composite
def scoring_cases(draw):
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constants = st.sampled_from([0.0, 0.1, 1 / 3, 0.7, -2.9, 1e-3])

    def column(kind, truth=None):
        if kind == "normal":
            return rng.normal(size=n) * draw(st.sampled_from([1.0, 1e-3, 250.0]))
        if kind == "sparse":  # exact zeros, now and then none active at all
            return rng.normal(size=n) * (rng.random(n) < draw(st.floats(0.0, 0.3)))
        if kind == "constant":
            return np.full(n, draw(constants))
        source = truth[:, draw(st.integers(0, truth.shape[1] - 1))]
        gain = draw(st.sampled_from([1.0, -1.0, 0.5, -2.0, 1.7, 3e3]))
        copy = gain * source + draw(st.sampled_from([0.0, 0.1, -3.0]))
        return copy if kind == "copy" else copy + 0.3 * rng.normal(size=n)

    kinds = st.sampled_from(["normal", "sparse", "constant"])
    n_true = draw(st.integers(1, 7))
    truth = np.column_stack([column(draw(kinds)) for _ in range(n_true)])
    est_kinds = st.sampled_from(["normal", "sparse", "constant", "copy", "copy", "noisy"])
    est = np.column_stack([column(draw(est_kinds), truth) for _ in range(draw(st.integers(1, 7)))])
    if draw(st.booleans()):
        truth, est = np.asfortranarray(truth), np.asfortranarray(est)
    return truth, est


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases())
def test_correlation_table_matches_the_per_pair_oracle_bit_for_bit(case):
    truth, est = case
    expected = _oracle_table(truth, est)
    assert _correlation_table(truth, est).tobytes() == expected.tobytes()


def test_correlation_table_holds_one_copy_of_the_truth_and_one_column():
    n, k = 200_000, 6
    rng = np.random.default_rng(12)
    truth = rng.normal(size=(n, k))
    est = 2.0 * truth[:, ::-1] + rng.normal(size=(n, k))
    tracemalloc.start()
    try:
        _correlation_table(truth, est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (k + 1) * n * 8 + 2**20


def test_count_uncovered_translates_estimate_indices():
    sources = np.zeros((4, 3))
    sources[0] = [1.0, 1.0, 1.0]
    sources[1] = [1.0, 0.0, 1.0]
    sources[2] = [0.0, 1.0, 0.0]
    # estimate k tracks true source (k + 1) % 3
    perm = [1, 2, 0]
    pairs = np.array(
        [
            [0, 2],  # covers true {1, 0}: source 2 active and missed
            [2, 0],  # covers true {0, 1}: source 2 active and missed
            [0, 1],  # covers true {1, 2}: everything active is covered
            [-1, -1],  # inactive sample, never counted
        ],
        dtype=np.int64,
    )
    assert count_uncovered(sources, pairs, perm) == 2


def test_count_uncovered_identity_and_unmatched():
    sources = np.zeros((3, 3))
    sources[0, 0] = 1.0
    sources[1, [0, 2]] = 1.0
    sources[2, 1] = 1.0
    pairs = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    assert count_uncovered(sources, pairs, [0, 1, 2]) == 0
    # an unmatched estimate column cannot cover anything
    assert count_uncovered(sources, pairs, [0, None, 2]) == 1
    with pytest.raises(ValueError, match="sample count mismatch"):
        count_uncovered(sources, pairs[:2], [0, 1, 2])


def test_max_simultaneous_sources():
    s = np.zeros((5, 3))
    s[0, 0] = 1.0
    s[1, [0, 1]] = 1.0
    s[2] = [0.5, -0.5, 0.25]
    assert max_simultaneous_sources(s) == 3
    assert max_simultaneous_sources(np.zeros((4, 2))) == 0
