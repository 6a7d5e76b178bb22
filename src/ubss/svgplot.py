"""Minimal SVG renderings of waveforms and ratio histograms.

Plain polyline and rect markup, fixed viewBox, no external assets, deterministic
output.  Waveforms keep at most 4 samples per pixel column and channel (M4).
"""

from __future__ import annotations

import numpy as np

from .csvio import _ratio_decimals
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


def _format_each(values, fmt: str) -> np.ndarray:
    """fmt % v for every element, formatting each distinct value (by its bits) once."""
    v = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(v.view(np.int64), return_inverse=True)
    text = np.array([fmt % u for u in bits.view(float).tolist()], dtype=object)
    return text[inverse].reshape(v.shape)


def waveform_svg(signals: np.ndarray) -> str:
    """One stacked panel per channel, all panels on a shared amplitude scale.

    Sample t of T falls in pixel column min(plot_w*t // (T-1), plot_w-1).  Per
    column and channel the first, the last and the first samples to reach the
    lowest and the highest y are kept, in time order, at their own x (M4).
    """
    x = np.asarray(signals, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 1:
        raise ValueError(
            f"waveform plot needs a (T, K) array, T >= 2 and K >= 1, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValueError("waveform plot needs finite values, got NaN or inf")
    n_samples, n_channels = x.shape
    peak = float(np.max(np.abs(x))) or 1.0
    plot_w = _WIDTH - 2 * _MARGIN
    half = (_PANEL_HEIGHT - 10) / 2.0
    mids = _MARGIN + np.arange(n_channels) * _PANEL_HEIGHT + _PANEL_HEIGHT / 2.0
    y = mids - half * (x / peak)
    t = np.arange(n_samples)
    column = np.minimum(plot_w * t // (n_samples - 1), plot_w - 1)
    starts = np.flatnonzero(np.diff(column, prepend=-1))
    widths = np.diff(starts, append=n_samples)
    keep = np.zeros(x.shape, dtype=bool)
    keep[starts] = keep[starts + widths - 1] = True
    for extreme in (np.minimum, np.maximum):
        hit = y == np.repeat(extreme.reduceat(y, starts), widths, axis=0)
        first = np.minimum.reduceat(np.where(hit, t[:, None], n_samples), starts)
        keep[first, np.arange(n_channels)] = True
    ks, ts = np.nonzero(keep.T)
    xs = _format_each(_MARGIN + plot_w * ts / (n_samples - 1), "%.2f,")
    pts = xs + _format_each(y[ts, ks], "%.2f")
    body = []
    for k, mid in enumerate(mids.tolist()):
        body += [
            f'<line x1="{_MARGIN}" y1="{mid:.2f}" x2="{_WIDTH - _MARGIN}" y2="{mid:.2f}" '
            f'stroke="#bbbbbb" stroke-width="1"/>',
            f'<polyline points="{" ".join(pts[ks == k].tolist())}" fill="none" '
            f'stroke="#1f4e8c" stroke-width="1"/>',
            f'<text x="{_MARGIN}" y="{mid - half - 2:.2f}" font-size="11" '
            f'fill="#333333">ch{k + 1}</text>',
        ]
    return _svg(_WIDTH, 2 * _MARGIN + n_channels * _PANEL_HEIGHT, body)


def bar_graph_svg(hist: RatioHistogram) -> str:
    """Histogram bars positioned by ratio value, heights scaled to the mode."""
    body = [
        f'<line x1="{_MARGIN}" y1="{_BAR_HEIGHT - _MARGIN}" x2="{_BAR_WIDTH - _MARGIN}" '
        f'y2="{_BAR_HEIGHT - _MARGIN}" stroke="#333333" stroke-width="1"/>'
    ]
    keys = sorted(hist.bins)
    lo, hi = keys[0], keys[-1]
    span = hi - lo if hi > lo else 1.0
    max_count = max(hist.bins.values())
    d = _ratio_decimals(hist.quantum)
    plot_w = _BAR_WIDTH - 2 * _MARGIN
    plot_h = _BAR_HEIGHT - 2 * _MARGIN
    for key in keys:
        h = plot_h * hist.bins[key] / max_count
        cx = _MARGIN + plot_w * (key - lo) / span
        body.append(
            f'<rect x="{cx - 1.5:.2f}" y="{_BAR_HEIGHT - _MARGIN - h:.2f}" width="3" '
            f'height="{h:.2f}" fill="#1f4e8c"/>'
        )
    body += [
        f'<text x="{_MARGIN}" y="{_BAR_HEIGHT - 5}" font-size="11" '
        f'fill="#333333">{lo:.{d}f}</text>',
        f'<text x="{_BAR_WIDTH - _MARGIN - 50}" y="{_BAR_HEIGHT - 5}" font-size="11" '
        f'fill="#333333">{hi:.{d}f}</text>',
    ]
    return _svg(_BAR_WIDTH, _BAR_HEIGHT, body)
