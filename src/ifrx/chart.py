"""Standalone SVG line charts, no plotting dependency.

Output is plain text built from the data alone, so the same input always
produces the same bytes.
"""

from __future__ import annotations

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

    def sx(x: float) -> float:
        span = x_max - x_min
        if span == 0:
            return MARGIN_LEFT + plot_w / 2
        return MARGIN_LEFT + (x - x_min) / span * plot_w

    def sy(y: float) -> float:
        span = y_max - y_min
        if span == 0:
            return MARGIN_TOP + plot_h / 2
        return MARGIN_TOP + plot_h - (y - y_min) / span * plot_h

    left, right = MARGIN_LEFT, MARGIN_LEFT + plot_w
    top, bottom = MARGIN_TOP, MARGIN_TOP + plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="18">{_escape(title)}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>'
    )
    # min/max ticks with numeric labels
    for x_val in (x_min, x_max):
        px = sx(x_val)
        parts.append(f'<line x1="{_fmt(px)}" y1="{bottom}" x2="{_fmt(px)}" y2="{bottom + 6}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{bottom + 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x_val:.6g}</text>'
        )
    for y_val in (y_min, y_max):
        py = sy(y_val)
        parts.append(f'<line x1="{left - 6}" y1="{_fmt(py)}" x2="{left}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(
            f'<text x="{left - 10}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{y_val:.6g}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{(left + right) / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="20" y="{(top + bottom) / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" '
            f'transform="rotate(-90 20 {(top + bottom) / 2:.0f})">{_escape(y_label)}</text>'
        )

    legend_x = right + 16
    for idx, (name, pts) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        if len(pts) >= 2:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}"/>')
        ly = top + 14 + idx * 20
        parts.append(f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 24}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{legend_x + 30}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{_escape(str(name))}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
