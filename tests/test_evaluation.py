from itertools import permutations

import numpy as np
import pytest

from ubss import (
    align_and_score,
    correlation,
    count_uncovered,
    max_simultaneous_sources,
)


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


def test_align_input_validation():
    good = np.ones((10, 2)) + np.arange(10)[:, None]
    with pytest.raises(ValueError, match="must be 2-D"):
        align_and_score(good[:, 0], good)
    with pytest.raises(ValueError, match="sample count mismatch"):
        align_and_score(good, good[:5])


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
