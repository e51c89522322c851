"""Explanation artifacts: the run CSV and the shape-function SVG.

One CSV per run: a key,value summary block (variant, regularization,
per-feature mixing coefficients, diagnostics) followed by the curve block
with columns feature,x,contribution. The SVG is a dependency-free small
multiple, one panel per feature with a data-density strip along the x axis.
All numbers are formatted with repr, so identical explanations produce
byte-identical files.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import _atomic_open
from .explain import Explanation


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def explanation_summary(expl: Explanation) -> list[tuple[str, str]]:
    """The key/value pairs of the CSV summary block, in a fixed order."""
    config = expl.model.config
    pairs = [
        ("mode", expl.mode),
        ("variant", config.variant), ("lambda", _fmt(config.lam)), ("mu", _fmt(config.mu)),
        *((key, _fmt(expl.params[key])) for key in "epsilon n_points seed".split()),
        ("initial_loss", _fmt(expl.diagnostics.initial_loss)),
        ("final_loss", _fmt(expl.diagnostics.final_loss)),
        ("epochs", _fmt(expl.diagnostics.epochs)),
        ("c_index_surrogate", _fmt(expl.diagnostics.c_index)),
        ("c_index_blackbox", _fmt(expl.diagnostics.c_index_blackbox)),
    ]
    for key, values in expl.mixing.items():  # VARIANT_HEADS order, then linear_weight
        pairs += [(f"{key}.{name}", _fmt(v)) for name, v in zip(expl.feature_names, values)]
    return pairs


def write_explanation_csv(expl: Explanation, path) -> None:
    """Summary block, blank line, then one row per curve point; quoted only where needed."""
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(explanation_summary(expl))
        writer.writerow([])
        writer.writerow(["feature", "x", "contribution"])
        for name, curve in zip(expl.feature_names, expl.curves):
            writer.writerows((name, _fmt(float(x)), _fmt(float(y)))
                             for x, y in zip(curve.xs, curve.values))


# ---------------------------------------------------------------------------
# SVG small multiples

_PANEL_W = 240
_PANEL_H = 180
_MARGIN = 42
_GAP = 18
_STRIP_H = 10


def _panel_svg(name, curve, reference, x0, y0) -> list[str]:
    parts = [f'<g transform="translate({x0},{y0})">']
    plot_w = _PANEL_W - _MARGIN - 10
    plot_h = _PANEL_H - _MARGIN - _STRIP_H - 14
    left, top = float(_MARGIN), 16.0

    xs = np.asarray(curve.xs, dtype=float)
    ys = np.asarray(curve.values, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(min(ys.min(), 0.0)), float(max(ys.max(), 0.0))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(v):
        return left + (v - x_lo) / x_span * plot_w

    def py(v):
        return top + (y_hi - v) / y_span * plot_h

    parts.append(f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" '
                 f'height="{plot_h:.1f}" fill="none" stroke="#999" stroke-width="0.8"/>')
    # Escaped by hand: xml.sax.saxutils pulls in urllib.request and ssl, 7 MB of RSS.
    title = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="11" text-anchor="middle" '
                 f'font-size="11" font-family="sans-serif">{title}</text>')
    if y_lo < 0.0 < y_hi:
        zero = py(0.0)
        parts.append(f'<line x1="{left:.1f}" y1="{zero:.1f}" x2="{left + plot_w:.1f}" '
                     f'y2="{zero:.1f}" stroke="#ccc" stroke-width="0.6" '
                     f'stroke-dasharray="3,3"/>')

    # density strip: histogram of the reference values, opacity ~ density
    strip_top = top + plot_h + 3
    bins = min(24, max(4, int(math.sqrt(reference.size)) * 2))
    counts, edges = np.histogram(reference, bins=bins, range=(x_lo, x_hi))
    peak = counts.max() if counts.max() > 0 else 1
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        if c == 0:
            continue
        opacity = 0.15 + 0.85 * (c / peak)
        parts.append(f'<rect x="{px(lo):.1f}" y="{strip_top:.1f}" '
                     f'width="{max(px(hi) - px(lo), 0.5):.1f}" height="{_STRIP_H}" '
                     f'fill="#d95f02" fill-opacity="{opacity:.3f}"/>')

    if len(xs) == 1:
        parts.append(f'<circle cx="{px(xs[0]):.1f}" cy="{py(ys[0]):.1f}" r="2.5" '
                     f'fill="#1b6ca8"/>')
    else:
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1b6ca8" '
                     f'stroke-width="1.6"/>')

    label_y = strip_top + _STRIP_H + 11
    parts.append(f'<text x="{left:.1f}" y="{label_y:.1f}" font-size="9" '
                 f'font-family="sans-serif">{x_lo:.3g}</text>')
    parts.append(f'<text x="{left + plot_w:.1f}" y="{label_y:.1f}" text-anchor="end" '
                 f'font-size="9" font-family="sans-serif">{x_hi:.3g}</text>')
    parts.append(f'<text x="{left - 4:.1f}" y="{py(y_hi) + 3:.1f}" text-anchor="end" '
                 f'font-size="9" font-family="sans-serif">{y_hi:.3g}</text>')
    parts.append(f'<text x="{left - 4:.1f}" y="{py(y_lo) + 3:.1f}" text-anchor="end" '
                 f'font-size="9" font-family="sans-serif">{y_lo:.3g}</text>')
    parts.append("</g>")
    return parts


def write_shapes_svg(expl: Explanation, path) -> None:
    """Small-multiples plot of every centered shape curve with density strips."""
    m = expl.m
    cols = max(1, int(math.ceil(math.sqrt(m))))
    rows = int(math.ceil(m / cols))
    width = cols * _PANEL_W + (cols + 1) * _GAP
    height = rows * _PANEL_H + (rows + 1) * _GAP
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for k, (name, curve) in enumerate(zip(expl.feature_names, expl.curves)):
        r, c = divmod(k, cols)
        x0 = _GAP + c * (_PANEL_W + _GAP)
        y0 = _GAP + r * (_PANEL_H + _GAP)
        parts.extend(_panel_svg(name, curve, expl.reference_points[:, k], x0, y0))
    parts.append("</svg>")
    with _atomic_open(path) as fh:
        fh.write("\n".join(parts) + "\n")
