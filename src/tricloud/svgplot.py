"""Tiny dependency-free SVG line plots.

Good enough for rate-distortion curves and per-frame traces; not a plotting
library.  Non-finite samples are dropped from their series.
"""

from __future__ import annotations

import math
from html import escape

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 16, 34, 46
_N_TICKS = 5  # per axis, roughly: the step is rounded to 1, 2, 2.5 or 5 times a power of 10


def _finite_points(xs, ys):
    return [
        (float(x), float(y))
        for x, y in zip(xs, ys)
        if math.isfinite(float(x)) and math.isfinite(float(y))
    ]


def _axis_range(values):
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _ticks(lo, hi):
    """Ticks over lo < hi, which _axis_range guarantees."""
    raw = (hi - lo) / _N_TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + step * 1e-9:
        ticks.append(round(v, 12))
        v += step
    return ticks


def write_line_plot(path, series, title: str, xlabel: str, ylabel: str) -> None:
    """Write a 640 x 440 SVG with one polyline per series, a title and axis labels.

    series: iterable of (label, xs, ys) triples.
    """
    series = [(str(label), _finite_points(xs, ys)) for label, xs, ys in series]
    all_pts = [p for _, pts in series for p in pts]
    x_lo, x_hi = _axis_range([p[0] for p in all_pts])
    y_lo, y_hi = _axis_range([p[1] for p in all_pts])
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{escape(title, quote=False)}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{px:.1f}" y1="{_MARGIN_T + plot_h}" x2="{px:.1f}" '
                   f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333"/>')
        out.append(f'<text x="{px:.1f}" y="{_MARGIN_T + plot_h + 16}" '
                   f'text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(f'<line x1="{_MARGIN_L - 4}" y1="{py:.1f}" x2="{_MARGIN_L}" '
                   f'y2="{py:.1f}" stroke="#333"/>')
        out.append(f'<text x="{_MARGIN_L - 7}" y="{py + 3:.1f}" '
                   f'text-anchor="end">{ty:g}</text>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
               f'text-anchor="middle">{escape(xlabel, quote=False)}</text>')
    cy = _MARGIN_T + plot_h / 2
    out.append(f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 14 {cy:.1f})">{escape(ylabel, quote=False)}</text>')
    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       'stroke-width="1.6"/>')
            for x, y in pts:
                out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.4" '
                           f'fill="{color}"/>')
        ly = _MARGIN_T + 14 + 15 * i
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        out.append(f'<text x="{lx + 27}" y="{ly}">{escape(label, quote=False)}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(out) + "\n")
