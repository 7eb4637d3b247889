"""Minimal self-contained SVG line plots (no plotting dependencies).

Only what the benchmark commands need: one or more named series on shared
axes, optional log10 scaling per axis, tick labels, and a legend.  Output is
a deterministic function of the data.
"""

from __future__ import annotations

import math
from pathlib import Path

_WIDTH, _HEIGHT = 640, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 78, 24, 46, 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _transform(values, log_scale):
    if not log_scale:
        return [float(v) for v in values]
    out = []
    for v in values:
        if v <= 0.0:
            raise ValueError("log-scaled axis needs positive values")
        out.append(math.log10(v))
    return out


def _span(values):
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = max(abs(lo) * 0.1, 1.0)
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _ticks(lo, hi, log_scale):
    """Tick positions; log axes tick at whole decades when they fit."""
    if log_scale:
        first, last = math.ceil(lo), math.floor(hi)
        if last >= first and last - first <= 12:
            return [float(k) for k in range(first, last + 1)]
    step = (hi - lo) / 4.0
    return [lo + i * step for i in range(5)]


def _tick_label(value, log_scale):
    if log_scale and abs(value - round(value)) < 1e-9:
        return f"1e{round(value)}"
    return f"{value:.4g}"


def render_line_plot(series, title="", x_label="", y_label="",
                     log_x=False, log_y=False) -> str:
    """SVG text for named series: iterable of (label, xs, ys)."""
    prepared = []
    for label, xs, ys in series:
        xs, ys = list(xs), list(ys)
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r} has mismatched lengths")
        if not xs:
            raise ValueError(f"series {label!r} is empty")
        prepared.append((label, _transform(xs, log_x), _transform(ys, log_y)))
    x_lo, x_hi = _span([v for _, xs, _ in prepared for v in xs])
    y_lo, y_hi = _span([v for _, _, ys in prepared for v in ys])
    inner_w = _WIDTH - _LEFT - _RIGHT
    inner_h = _HEIGHT - _TOP - _BOTTOM

    def px(x):
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y):
        return _TOP + (y_hi - y) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" font-size="15" '
        f'text-anchor="middle" font-family="sans-serif">{title}</text>',
    ]
    axis = (f'M {_LEFT} {_TOP} L {_LEFT} {_TOP + inner_h} '
            f'L {_LEFT + inner_w} {_TOP + inner_h}')
    parts.append(f'<path d="{axis}" fill="none" stroke="black" stroke-width="1"/>')
    for pos in _ticks(x_lo, x_hi, log_x):
        x = px(pos)
        parts.append(f'<line x1="{x:.2f}" y1="{_TOP + inner_h}" x2="{x:.2f}" '
                     f'y2="{_TOP + inner_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_TOP + inner_h + 20}" '
                     f'font-size="11" text-anchor="middle" '
                     f'font-family="sans-serif">{_tick_label(pos, log_x)}</text>')
    for pos in _ticks(y_lo, y_hi, log_y):
        y = py(pos)
        parts.append(f'<line x1="{_LEFT - 5}" y1="{y:.2f}" x2="{_LEFT}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_LEFT - 9}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end" font-family="sans-serif">'
                     f'{_tick_label(pos, log_y)}</text>')
    parts.append(f'<text x="{_LEFT + inner_w / 2:.1f}" y="{_HEIGHT - 12}" '
                 f'font-size="13" text-anchor="middle" '
                 f'font-family="sans-serif">{x_label}</text>')
    parts.append(f'<text x="20" y="{_TOP + inner_h / 2:.1f}" font-size="13" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 20 {_TOP + inner_h / 2:.1f})">'
                 f'{y_label}</text>')
    for i, (label, xs, ys) in enumerate(prepared):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        ly = _TOP + 14 + 18 * i
        lx = _LEFT + inner_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 32}" y="{ly}" font-size="12" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
