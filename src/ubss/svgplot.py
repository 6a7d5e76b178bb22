"""Minimal SVG renderings of waveforms and ratio histograms.

Plain polyline and rect markup, fixed viewBox, no external assets.  Output is
deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np

from .estimation import RatioHistogram

_WIDTH = 900
_PANEL_HEIGHT = 120
_MARGIN = 20
_BAR_WIDTH = 640
_BAR_HEIGHT = 320


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def waveform_svg(signals: np.ndarray) -> str:
    """One stacked panel per channel, all panels on a shared amplitude scale."""
    x = np.asarray(signals, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"waveform plot needs a (T, K) array with T >= 2, got shape {x.shape}")
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


def bar_graph_svg(hist: RatioHistogram) -> str:
    """Histogram bars positioned by ratio value, heights scaled to the mode."""
    body = [
        f'<line x1="{_MARGIN}" y1="{_BAR_HEIGHT - _MARGIN}" x2="{_BAR_WIDTH - _MARGIN}" '
        f'y2="{_BAR_HEIGHT - _MARGIN}" stroke="#333333" stroke-width="1"/>'
    ]
    if hist.bins:
        keys = sorted(hist.bins)
        lo, hi = keys[0], keys[-1]
        span = hi - lo if hi > lo else 1.0
        max_count = max(hist.bins.values())
        plot_w = _BAR_WIDTH - 2 * _MARGIN
        plot_h = _BAR_HEIGHT - 2 * _MARGIN
        for key in keys:
            h = plot_h * hist.bins[key] / max_count
            cx = _MARGIN + plot_w * (key - lo) / span
            body.append(
                f'<rect x="{cx - 1.5:.2f}" y="{_BAR_HEIGHT - _MARGIN - h:.2f}" width="3" '
                f'height="{h:.2f}" fill="#1f4e8c"/>'
            )
        body.append(
            f'<text x="{_MARGIN}" y="{_BAR_HEIGHT - 5}" font-size="11" '
            f'fill="#333333">{lo:.4f}</text>'
        )
        body.append(
            f'<text x="{_BAR_WIDTH - _MARGIN - 50}" y="{_BAR_HEIGHT - 5}" font-size="11" '
            f'fill="#333333">{hi:.4f}</text>'
        )
    return _svg(_BAR_WIDTH, _BAR_HEIGHT, body)
