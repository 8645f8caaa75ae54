"""Tiny SVG chart emitter for sweep curves and strategy comparisons.

Hand-written on purpose: no plotting dependency, and the output is a pure
function of the inputs (no timestamps, no random ids), so rerunning a
pipeline reproduces every chart byte for byte.
"""

from __future__ import annotations

from .atomic import atomic_open

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
]
_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 32, 48


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo < 1e-12:
        pad = max(abs(lo), 1.0) * 0.5
        return lo - pad, hi + pad
    return lo, hi


def _frame(title, xlabel, ylabel, x0, x1, y0, y1):
    """Opening tag, axes, tick marks and labels; returns (parts, to_px)."""
    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def to_px(x, y):
        px = _MARGIN_L + (x - x0) / (x1 - x0) * pw
        py = _MARGIN_T + (1.0 - (y - y0) / (y1 - y0)) * ph
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{_MARGIN_L + pw / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_MARGIN_T + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_MARGIN_T + ph / 2:.1f})">{ylabel}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#444"/>',
    ]
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        px, _ = to_px(xv, y0)
        _, py = to_px(x0, yv)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_MARGIN_T + ph}" x2="{px:.1f}" '
            f'y2="{_MARGIN_T + ph + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_MARGIN_T + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{py:.1f}" x2="{_MARGIN_L}" '
            f'y2="{py:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>'
        )
    return parts, to_px


def line_chart(
    label: str, xs: list[float], ys: list[float], title: str, xlabel: str, ylabel: str
) -> str:
    """Line chart of one series, the points (xs, ys), with a legend entry."""
    if len(xs) != len(ys) or not xs:
        raise ValueError(f"series {label!r} needs equal-length non-empty x/y")
    x0, x1 = _padded(min(xs), max(xs))
    y0, y1 = _padded(min(ys), max(ys))
    parts, to_px = _frame(title, xlabel, ylabel, x0, x1, y0, y1)
    color = _PALETTE[0]
    pts = " ".join(f"{px:.1f},{py:.1f}" for px, py in map(to_px, xs, ys))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
    )
    for px, py in map(to_px, xs, ys):
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}"/>')
    ly, lx = _MARGIN_T + 14, _WIDTH - _MARGIN_R - 130
    parts.append(
        f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 20}" y2="{ly - 4}" '
        f'stroke="{color}" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{lx + 26}" y="{ly}" font-family="sans-serif" '
        f'font-size="11">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart(labels: list[str], values: list[float], title: str, ylabel: str) -> str:
    """Vertical bar chart with one bar per label."""
    if not labels or len(labels) != len(values):
        raise ValueError("need equal-length non-empty labels/values")
    y0, y1 = _padded(min(0.0, min(values)), max(values))
    parts, to_px = _frame(title, "", ylabel, 0.0, float(len(labels)), y0, y1)
    for k, (label, v) in enumerate(zip(labels, values)):
        x_left, y_top = to_px(k + 0.15, max(v, 0.0))
        x_right, y_base = to_px(k + 0.85, min(v, 0.0))
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<rect x="{x_left:.1f}" y="{y_top:.1f}" '
            f'width="{x_right - x_left:.1f}" height="{y_base - y_top:.1f}" '
            f'fill="{color}"/>'
        )
        cx = (x_left + x_right) / 2
        parts.append(
            f'<text x="{cx:.1f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{y_top - 4:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(v)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(svg: str, path) -> None:
    with atomic_open(path) as f:
        f.write(svg)
