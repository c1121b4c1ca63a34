"""Minimal deterministic SVG rendering of profiles over a shaded band."""

from __future__ import annotations

import re

import numpy as np

_WIDTH, _HEIGHT = 720, 480
_MARGIN = 50
_COLORS = ("#000000", "#b2182b", "#2166ac", "#4dac26", "#d01c8b", "#e66101")


def _fmt(x: float) -> str:
    return format(x, ".2f")


# what XML 1.0's Char production leaves out: C0 controls but tab, LF and CR,
# surrogates, U+FFFE and U+FFFF.  ``re`` compiles it at its first use, so a
# command that renders no SVG never does
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _text(x, y, body, size, anchor=None, fill=None) -> str:
    """A <text> element at (x, y); ``body`` is escaped as by ``html.escape(body,
    quote=False)``, whose import would add to every command's memory, and
    each character that XML cannot hold becomes U+FFFD."""
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    body = re.sub(_NOT_XML_CHAR, "\ufffd", body)
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    fill = f' fill="{fill}"' if fill else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"{fill}>'
            f'{body}</text>')


def render_plot(times, series, band, start_hour=None, title="") -> str:
    """``series`` is a list of (label, values) drawn over ``band``, the
    (2, times) rows lower and upper shaded between them."""
    times = np.asarray(times, dtype=float)
    lower, upper = band
    stack = np.concatenate([np.asarray(v, dtype=float) for _, v in series] + [lower, upper])
    ylo, yhi = float(stack.min()), float(stack.max())
    pad = 0.05 * max(yhi - ylo, 1.0)
    ylo, yhi = ylo - pad, yhi + pad
    tlo, thi = float(times.min()), float(times.max())

    def sx(t):
        return _MARGIN + (t - tlo) / max(thi - tlo, 1e-9) * (_WIDTH - 2 * _MARGIN)

    def sy(v):
        return _HEIGHT - _MARGIN - (v - ylo) / (yhi - ylo) * (_HEIGHT - 2 * _MARGIN)

    def points(ts, vs):
        return " ".join(f"{_fmt(sx(t))},{_fmt(sy(v))}" for t, v in zip(ts, vs))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(_text(_WIDTH // 2, 24, title, 16, "middle"))
    pts = f"{points(times, upper)} {points(times[::-1], lower[::-1])}"
    parts.append(f'<polygon points="{pts}" fill="#cccccc" fill-opacity="0.6"/>')
    for i, (label, values) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline points="{points(times, values)}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(_text(_WIDTH - _MARGIN + 4, _fmt(sy(values[-1])), label, 11, fill=color))
    base = _HEIGHT - _MARGIN  # y of the time axis
    parts += [f'<line x1="{_MARGIN}" y1="{base}" x2="{_WIDTH - _MARGIN}" y2="{base}" '
              'stroke="#000000"/>',
              f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{base}" stroke="#000000"/>']
    for t in range(0, 25, 4):
        if not tlo <= t <= thi:
            continue
        label = t if start_hour is None else int((start_hour + t) % 24)
        parts.append(_text(_fmt(sx(t)), base + 18, label, 11, "middle"))
    axis_label = "clock hour" if start_hour is not None else "elapsed hours"
    parts.append(_text(_WIDTH // 2, _HEIGHT - 12, axis_label, 12, "middle"))
    for k in range(5):
        v = ylo + k * (yhi - ylo) / 4
        parts.append(_text(_MARGIN - 6, _fmt(sy(v) + 4), _fmt(v), 11, "end"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
