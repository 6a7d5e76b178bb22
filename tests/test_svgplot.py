import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ubss.svgplot import _MARGIN, _PANEL_HEIGHT, _WIDTH, _svg, waveform_svg

PLOT_W = _WIDTH - 2 * _MARGIN
HALF = (_PANEL_HEIGHT - 10) / 2.0

# Per-sample reference of waveform_svg(): one point, two Python-float formats
# at a time.  Up to T = PLOT_W + 1 every sample is drawn, so it is the exact
# output there; `kept` restricts each channel to the given samples.


def waveform_svg_oracle(signals: np.ndarray, kept=None) -> str:
    x = np.asarray(signals, dtype=float)
    n_samples, n_channels = x.shape
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        peak = 1.0
    body = []
    for k in range(n_channels):
        mid = _MARGIN + k * _PANEL_HEIGHT + _PANEL_HEIGHT / 2.0
        body.append(
            f'<line x1="{_MARGIN}" y1="{mid:.2f}" x2="{_WIDTH - _MARGIN}" y2="{mid:.2f}" '
            f'stroke="#bbbbbb" stroke-width="1"/>'
        )
        pts = " ".join(
            f"{_MARGIN + PLOT_W * t / (n_samples - 1):.2f},{mid - HALF * (x[t, k] / peak):.2f}"
            for t in (range(n_samples) if kept is None else kept[k])
        )
        body.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e8c" stroke-width="1"/>')
        body.append(
            f'<text x="{_MARGIN}" y="{mid - HALF - 2:.2f}" font-size="11" '
            f'fill="#333333">ch{k + 1}</text>'
        )
    return _svg(_WIDTH, 2 * _MARGIN + n_channels * _PANEL_HEIGHT, body)


def pixel_columns(n_samples: int) -> list[list[int]]:
    """The samples of each non-empty pixel column, in time order."""
    columns: dict[int, list[int]] = {}
    for t in range(n_samples):
        columns.setdefault(min(PLOT_W * t // (n_samples - 1), PLOT_W - 1), []).append(t)
    return list(columns.values())


def m4_kept(signals: np.ndarray) -> list[list[int]]:
    """Scalar M4 rule: per column and channel the first, the last, the first
    lowest-y and the first highest-y sample, in time order."""
    x = np.asarray(signals, dtype=float)
    peak = float(np.max(np.abs(x))) or 1.0
    kept = []
    for k in range(x.shape[1]):
        mid = _MARGIN + k * _PANEL_HEIGHT + _PANEL_HEIGHT / 2.0
        picks = set()
        for ts in pixel_columns(x.shape[0]):
            ys = [mid - HALF * (x[t, k] / peak) for t in ts]
            picks |= {ts[0], ts[-1], ts[ys.index(min(ys))], ts[ys.index(max(ys))]}
        kept.append(sorted(picks))
    return kept


def polylines(svg: str) -> list[list[tuple[str, str]]]:
    """Each polyline's points as (x, y) text pairs."""
    return [
        [tuple(p.split(",")) for p in pts.split()]
        for pts in re.findall(r'<polyline points="([^"]*)"', svg)
    ]


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -1.0, 1.0, -0.004999)
samples = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=100, deadline=None)
@given(x=arrays(float, st.tuples(st.integers(2, PLOT_W + 1), st.integers(1, 4)), elements=samples))
def test_waveform_svg_matches_the_per_sample_oracle(x):
    assert waveform_svg(x) == waveform_svg_oracle(x)


@pytest.mark.parametrize(
    "x",
    [
        np.zeros((2, 1)),  # peak == 0, the shortest recording
        np.zeros((7, 3)),
        np.array([[-0.0, 0.0], [0.0, -0.0], [5e-324, -5e-324]]),
        np.repeat([[0.25, -0.5, 0.0]], 500, axis=0),  # many repeated values
        -np.abs(np.random.default_rng(0).normal(size=(300, 2))),
        np.ones((161, 1)),  # x = 860 * (t / 160) would print a different digit
        np.random.default_rng(1).normal(size=(PLOT_W + 1, 2)),  # two samples in the last column
    ],
)
def test_waveform_svg_matches_the_oracle_on_edge_arrays(x):
    assert waveform_svg(x) == waveform_svg_oracle(x)


@st.composite
def waveforms(draw):
    """(T, K) signals like the pipeline's: pulses between long runs of exact
    zeros, few distinct values so a column's extreme ties, constant columns."""
    n = draw(st.one_of(st.integers(2, 5000), st.sampled_from([861, 862, 1721, 1722, 5000])))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(draw(st.lists(samples, min_size=1, max_size=5)))
    values = pool[rng.integers(pool.size, size=(n, k))]
    if draw(st.booleans()):
        values = values + rng.normal(size=(n, k))
    run = draw(st.integers(1, 400))
    active = rng.random((-(-n // run), k)) < draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    return np.where(np.repeat(active, run, axis=0)[:n], values, 0.0)


@settings(max_examples=150, deadline=None)
@given(x=waveforms())
def test_waveform_svg_draws_the_m4_points_of_the_scalar_oracle(x):
    assert waveform_svg(x) == waveform_svg_oracle(x, m4_kept(x))


@settings(max_examples=150, deadline=None)
@given(x=waveforms())
def test_waveform_svg_keeps_each_pixel_columns_ends_and_extremes(x):
    # M4's pixel-exactness condition, against the every-sample drawing: each
    # emitted point is a drawn sample, and per column the emitted points hold
    # the first and the last sample and reach the same lowest and highest y
    every = polylines(waveform_svg_oracle(x))
    for k, emitted in enumerate(polylines(waveform_svg(x))):
        at = {p[0]: t for t, p in enumerate(every[k])}  # x text to sample; unique for T <= 5000
        ts = [at[p[0]] for p in emitted]
        assert ts == sorted(set(ts))
        assert [every[k][t] for t in ts] == emitted
        drawn = set(ts)
        for column in pixel_columns(x.shape[0]):
            assert column[0] in drawn and column[-1] in drawn
            ys = [float(every[k][t][1]) for t in column]
            mine = [y for t, y in zip(column, ys) if t in drawn]
            assert (min(mine), max(mine)) == (min(ys), max(ys))


def test_waveform_svg_holds_at_most_four_points_per_pixel_column():
    x = np.random.default_rng(2).normal(size=(103040, 3))
    lines = polylines(waveform_svg(x))
    assert len(lines) == 3
    assert all(len(pts) <= 4 * PLOT_W for pts in lines)


def test_waveform_svg_scales_the_largest_finite_values_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = waveform_svg(np.array([[1e308], [0.0], [-1e308]]))
    assert polylines(svg) == [[("20.00", "25.00"), ("450.00", "80.00"), ("880.00", "135.00")]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_waveform_svg_refuses_non_finite_samples(bad):
    x = np.zeros((5, 2))
    x[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        waveform_svg(x)
