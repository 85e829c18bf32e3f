"""Minimal standalone SVG line plots (no plotting dependency).

Good enough for the error-curve figure of ``least-squares``: linear x
axis, log10 y axis with decade ticks, one polyline per series, small
legend.  The plot is returned as text; the CLI writes it.
"""

from __future__ import annotations

import math

_COLORS = ("#1f6fb2", "#d95f02", "#1b9e77", "#7570b3", "#e7298a", "#666666")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50


def _ticks(lo: float, hi: float, count: int = 6):
    """Round ticks over lo < hi."""
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(t)
        t += step
    return out


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:g}"


def line_plot_svg(xs, series, title, xlabel, ylabel) -> str:
    """Render one plot with a log10 y axis as an SVG document string.

    Parameters
    ----------
    xs : shared x values.
    series : mapping name -> y values (same length as xs); zero, negative
        and non-finite entries break the polyline.  A plot with no
        positive finite value spans one decade.
    """
    xs = [float(v) for v in xs]
    logs = [
        [math.log10(v) if math.isfinite(v) and v > 0 else None for v in map(float, vals)]
        for vals in series.values()
    ]
    ys = [y for line in logs for y in line if y is not None]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys, default=0.0), max(ys, default=0.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-size="15">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for k in range(math.ceil(y_lo), math.floor(y_hi) + 1):
        y = py(k)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" '
            f'y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">1e{k}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{y:.1f}" stroke="#ddd"/>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    y_mid = _MARGIN_T + plot_h / 2
    parts.append(
        f'<text x="18" y="{y_mid:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {y_mid:.1f})">{ylabel}</text>'
    )

    for idx, (name, line) in enumerate(zip(series, logs)):
        color = _COLORS[idx % len(_COLORS)]
        segments = []
        current = []
        for x, y in zip(xs, line):
            if y is not None:
                current.append(f"{px(x):.1f},{py(y):.1f}")
            elif current:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        for seg in segments:
            parts.append(
                f'<polyline points="{" ".join(seg)}" fill="none" '
                f'stroke="{color}" stroke-width="1.6"/>'
            )
        ly = _MARGIN_T + 16 + 16 * idx
        lx = _MARGIN_L + plot_w - 160
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(f'<text x="{lx + 30}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
