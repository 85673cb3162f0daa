"""Minimal SVG rendering for bound surfaces and curves.

Hand-rolled markup, no plotting dependency.  Figures are for human
inspection; all quantitative output lives in the CSV/JSON emitters.

Color map (fixed): linear interpolation dark blue (#1e3a8a) at the
minimum value through white to dark red (#991b1b) at the maximum, NaN
cells light gray.  Axes: x increases rightward, y increases upward.
"""

from __future__ import annotations

import math

__all__ = ["heatmap_svg", "curve_svg"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 50

_LOW = (0x1E, 0x3A, 0x8A)
_MID = (0xFF, 0xFF, 0xFF)
_HIGH = (0x99, 0x1B, 0x1B)


def _lerp(a, b, t: float) -> tuple[int, int, int]:
    return tuple(round(a[i] + (b[i] - a[i]) * t) for i in range(3))


def _color(value: float, lo: float, hi: float) -> str:
    if not math.isfinite(value):
        return "#d1d5db"
    t = 0.5 if hi == lo else (value - lo) / (hi - lo)
    rgb = _lerp(_LOW, _MID, t * 2.0) if t < 0.5 else _lerp(_MID, _HIGH, t * 2.0 - 1.0)
    return "#%02x%02x%02x" % rgb


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _frame(title: str, body: list[str], x_axis: str, y_axis: str, *notes: str) -> str:
    """The canvas, title and axis labels around a figure's body elements."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        *body,
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" font-size="13">{x_axis}</text>',
        f'<text x="16" y="{_H / 2}" font-size="13" '
        f'transform="rotate(-90 16 {_H / 2})" text-anchor="middle">{y_axis}</text>',
        *notes,
        "</svg>",
    ])


def heatmap_svg(values: list[list[float]], xs: list[float], ys: list[float], title: str) -> str:
    """Heatmap of values[j][i] over (delta, rho) = (xs[i], ys[j]), y upward."""
    n_x, n_y = len(xs), len(ys)
    finite = [v for row in values for v in row if math.isfinite(v)]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 1.0
    cell_w = (_W - _ML - _MR) / n_x
    cell_h = (_H - _MT - _MB) / n_y
    cells = []
    for j in range(n_y):
        for i in range(n_x):
            x = _ML + i * cell_w
            y = _H - _MB - (j + 1) * cell_h
            cells.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{_color(values[j][i], lo, hi)}"/>'
            )
    return _frame(
        title, cells,
        f"delta: {_fmt(xs[0])} .. {_fmt(xs[-1])}",
        f"rho: {_fmt(ys[0])} .. {_fmt(ys[-1])}",
        f'<text x="{_ML}" y="{_MT - 6}" font-size="12">'
        f"scale: {_fmt(lo)} (blue) to {_fmt(hi)} (red)</text>",
    )


_SERIES_COLORS = ("#1d4ed8", "#b91c1c", "#047857", "#7c3aed")


def curve_svg(series: dict[str, tuple[list[float], list[float]]], title: str) -> str:
    """Line plot of one or more named (delta, rho*) series, rho* on a log10
    scale; a point whose rho* is not a finite positive number is left out."""
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys if math.isfinite(y) and y > 0]
    if not all_x or not all_y:
        raise ValueError("nothing to plot")

    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(map(math.log10, all_y)), max(map(math.log10, all_y))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x: float) -> float:
        return _ML + (x - x_lo) / x_span * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (math.log10(y) - y_lo) / y_span * (_H - _MT - _MB)

    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#9ca3af"/>',
    ]
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(y) and y > 0
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 18 + 16 * idx}" text-anchor="end" '
            f'font-size="13" fill="{color}">{name}</text>'
        )
    return _frame(
        title, parts,
        f"delta: {_fmt(x_lo)} .. {_fmt(x_hi)}",
        f"log10(rho*): {_fmt(y_lo)} .. {_fmt(y_hi)}",
    )
