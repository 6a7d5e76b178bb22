import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ubss.svgplot import _MARGIN, _PANEL_HEIGHT, _WIDTH, _svg, waveform_svg

# Per-sample reference of waveform_svg(), which formats each distinct
# coordinate once: one point, two Python-float formats at a time.


def waveform_svg_oracle(signals: np.ndarray) -> str:
    x = np.asarray(signals, dtype=float)
    n_samples, n_channels = x.shape
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        peak = 1.0
    plot_w = _WIDTH - 2 * _MARGIN
    half = (_PANEL_HEIGHT - 10) / 2.0
    body = []
    for k in range(n_channels):
        mid = _MARGIN + k * _PANEL_HEIGHT + _PANEL_HEIGHT / 2.0
        body.append(
            f'<line x1="{_MARGIN}" y1="{mid:.2f}" x2="{_WIDTH - _MARGIN}" y2="{mid:.2f}" '
            f'stroke="#bbbbbb" stroke-width="1"/>'
        )
        pts = " ".join(
            f"{_MARGIN + plot_w * t / (n_samples - 1):.2f},{mid - half * x[t, k] / peak:.2f}"
            for t in range(n_samples)
        )
        body.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e8c" stroke-width="1"/>')
        body.append(
            f'<text x="{_MARGIN}" y="{mid - half - 2:.2f}" font-size="11" '
            f'fill="#333333">ch{k + 1}</text>'
        )
    return _svg(_WIDTH, 2 * _MARGIN + n_channels * _PANEL_HEIGHT, body)


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -1.0, 1.0, -0.004999)
samples = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)


@pytest.mark.filterwarnings("ignore:overflow encountered")  # half * 1e308 overflows in both
@settings(max_examples=100, deadline=None)
@given(x=arrays(float, st.tuples(st.integers(2, 400), st.integers(1, 4)), elements=samples))
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
    ],
)
def test_waveform_svg_matches_the_oracle_on_edge_arrays(x):
    assert waveform_svg(x) == waveform_svg_oracle(x)
