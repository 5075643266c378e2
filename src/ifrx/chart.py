"""Standalone SVG line charts, no plotting dependency.

Output is plain text built from the data alone, so the same input always
produces the same bytes.
"""

from __future__ import annotations

import math
import re

from .errors import InvalidInputError

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 80, 180, 50, 60
# the characters XML 1.0 allows in no document, escaped or not
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``>`` and ``<`` as entities,
    ``&`` first, the bytes of ``xml.sax.saxutils.escape``. Done here because
    importing ``xml.sax`` loads ``urllib``, ``http``, ``email`` and ``ssl``
    into every process that imports the package."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _scale(lo: float, hi: float, start: float, length: float):
    """Map [lo, hi] onto [start, start + length]; a single value maps to the
    middle. Where hi - lo overflows a float, the map works on halved
    operands; a finite span does not, as halving rounds near the subnormal
    range."""
    span = hi - lo
    if span == 0:
        return lambda v: start + length / 2
    if math.isinf(span):
        return lambda v: start + (v / 2 - lo / 2) / (hi / 2 - lo / 2) * length
    return lambda v: start + (v - lo) / span * length


def _text(x, y, size: int, body: str, anchor: str = "", transform: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{_escape(body)}</text>')


def _line(x1, y1, x2, y2, color: str = "black", width: int = 0) -> str:
    width = f' stroke-width="{width}"' if width else ""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{color}"{width}/>'


def render_line_chart(series, x_label: str = "", y_label: str = "", title: str = "") -> str:
    """Build an 800x600 SVG with one polyline per series (point markers for
    singletons), min/max axis ticks, and a legend.

    ``series`` is a list of (name, [(x, y), ...]) pairs in draw order. Text
    holding a character XML 1.0 does not allow raises InvalidInputError.
    """
    series = [(name, list(pts)) for name, pts in series]
    if not series or all(not pts for _, pts in series):
        raise InvalidInputError("no data rows to plot")
    texts = [("title", title), ("x-axis label", x_label), ("y-axis label", y_label)]
    for what, text in texts + [("series name", str(name)) for name, _ in series]:
        if bad := _NOT_XML.search(text):
            raise InvalidInputError(f"{what} holds U+{ord(bad[0]):04X}, which XML 1.0 forbids")
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    left, right = MARGIN_LEFT, MARGIN_LEFT + plot_w
    top, bottom = MARGIN_TOP, MARGIN_TOP + plot_h
    sx = _scale(x_min, x_max, left, plot_w)
    sy = _scale(y_min, y_max, bottom, -plot_h)
    mid_y = (top + bottom) // 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(_text(WIDTH // 2, 28, 18, title, "middle"))
    # axes
    parts.append(_line(left, bottom, right, bottom))
    parts.append(_line(left, top, left, bottom))
    # min/max ticks with numeric labels
    for x_val in (x_min, x_max):
        px = _fmt(sx(x_val))
        parts.append(_line(px, bottom, px, bottom + 6))
        parts.append(_text(px, bottom + 22, 12, f"{x_val:.6g}", "middle"))
    for y_val in (y_min, y_max):
        py = sy(y_val)
        parts.append(_line(left - 6, _fmt(py), left, _fmt(py)))
        parts.append(_text(left - 10, _fmt(py + 4), 12, f"{y_val:.6g}", "end"))
    if x_label:
        parts.append(_text((left + right) // 2, HEIGHT - 14, 14, x_label, "middle"))
    if y_label:
        parts.append(_text(20, mid_y, 14, y_label, "middle", f"rotate(-90 20 {mid_y})"))

    legend_x = right + 16
    for idx, (name, pts) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if len(pts) >= 2:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}"/>')
        ly = top + 14 + idx * 20
        parts.append(_line(legend_x, ly, legend_x + 24, ly, color, 2))
        parts.append(_text(legend_x + 30, ly + 4, 12, str(name)))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
