"""Dependency-free SVG rendering of barcodes and birth-death diagrams.

SVG keeps the outputs textual and diffable, which the round-trip and
determinism tests rely on. Colors encode homology dimension in both
views.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import InputError
from .persistence import Barcode

__all__ = ["render_barcode_svg", "render_diagram_svg"]

# one color per homology dimension, cycling past the end
PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _color(dim: int) -> str:
    return PALETTE[dim % len(PALETTE)]


def _ticks(limit: float) -> list[float]:
    """Five evenly spaced axis ticks from 0 to limit."""
    return [limit * i / 4 for i in range(5)]


def _span(b: Barcode) -> float:
    """Horizontal data extent: the scale range of the generating
    filtration, or the data's own reach when that range is degenerate."""
    finite = b.deaths[np.isfinite(b.deaths)]
    top = max(b.eps_max, b.births.max(initial=-math.inf), finite.max(initial=-math.inf))
    return float(top) if top > 0.0 else 1.0


def _frame(b: Barcode, width: float, height: float, ml: float) -> list[str]:
    """What both views open with: the header, a white background and one
    legend swatch per dimension present, from x = ml. An empty barcode is
    refused before anything is drawn or written."""
    if len(b) == 0:
        raise InputError("cannot render an empty barcode")
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for slot, dim in enumerate(sorted(set(b.dims.tolist()))):
        lx = ml + 90.0 * slot
        out.append(f'<rect x="{lx:.1f}" y="11.0" width="12" height="12" fill="{_color(dim)}"/>')
        out.append(f'<text x="{lx + 17:.1f}" y="22.0" font-size="12">dim {dim}</text>')
    return out


def render_barcode_svg(b: Barcode, path) -> None:
    """Horizontal bars against the scale axis in (dim, birth, death) order,
    one color per dimension, infinite bars arrow off the right edge."""
    span = _span(b)
    ml, mr, mt, mb = 60.0, 30.0, 40.0, 45.0
    row = 14.0
    width = 740.0
    height = mt + mb + row * len(b)
    inner = width - ml - mr

    def sx(value: float) -> float:
        return ml + inner * value / span

    out = _frame(b, width, height, ml)
    axis_y = height - mb
    out.append(
        f'<line x1="{ml:.1f}" y1="{axis_y:.1f}" x2="{width - mr:.1f}" y2="{axis_y:.1f}" '
        'stroke="black" stroke-width="1"/>'
    )
    for t in _ticks(span):
        x = sx(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{axis_y:.1f}" x2="{x:.1f}" y2="{axis_y + 5:.1f}" '
            'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{axis_y + 18:.1f}" font-size="11" '
            f'text-anchor="middle">{t:.3g}</text>'
        )
    out.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 8:.1f}" font-size="12" '
        'text-anchor="middle">scale eps</text>'
    )
    bars = zip(b.dims.tolist(), b.births.tolist(), b.deaths.tolist())
    for idx, (dim, birth, death) in enumerate(bars):
        y = mt + row * (idx + 0.5)
        x0 = sx(birth)
        x1 = sx(span) if math.isinf(death) else max(sx(death), x0 + 1.0)
        out.append(
            f'<line x1="{x0:.2f}" y1="{y:.2f}" x2="{x1:.2f}" y2="{y:.2f}" '
            f'stroke="{_color(dim)}" stroke-width="6" class="bar"/>'
        )
        if math.isinf(death):
            # arrowhead marks a bar that outlives the computed range
            out.append(
                f'<polygon points="{x1:.2f},{y - 6:.2f} {x1 + 10:.2f},{y:.2f} '
                f'{x1:.2f},{y + 6:.2f}" fill="{_color(dim)}"/>'
            )
    _write(path, out)


def render_diagram_svg(b: Barcode, path) -> None:
    """Birth-death scatter with the y = x diagonal; infinite deaths sit on
    a marked rail above the finite range; repeated intervals carry a
    multiplicity label."""
    span = _span(b)
    size = 560.0
    ml, mr, mt, mb = 65.0, 30.0, 45.0, 55.0
    inner_w = size - ml - mr
    inner_h = size - mt - mb
    rail = span * 1.1  # data value used for infinite deaths

    def sx(value: float) -> float:
        return ml + inner_w * value / (span * 1.15)

    def sy(value: float) -> float:
        return size - mb - inner_h * value / (span * 1.15)

    out = _frame(b, size, size, ml)
    # axes
    out.append(
        f'<line x1="{ml:.1f}" y1="{sy(0):.1f}" x2="{sx(span * 1.15):.1f}" y2="{sy(0):.1f}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{ml:.1f}" y1="{sy(0):.1f}" x2="{ml:.1f}" y2="{sy(span * 1.15):.1f}" '
        'stroke="black" stroke-width="1"/>'
    )
    for t in _ticks(span):
        out.append(
            f'<text x="{sx(t):.1f}" y="{sy(0) + 16:.1f}" font-size="11" '
            f'text-anchor="middle">{t:.3g}</text>'
        )
        out.append(
            f'<text x="{ml - 8:.1f}" y="{sy(t) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{t:.3g}</text>'
        )
    out.append(
        f'<text x="{(ml + size - mr) / 2:.1f}" y="{size - 10:.1f}" font-size="12" '
        'text-anchor="middle">birth</text>'
    )
    out.append(
        f'<text x="16" y="{(mt + size - mb) / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {(mt + size - mb) / 2:.1f})">death</text>'
    )
    # the y = x diagonal: nothing may be plotted below it
    out.append(
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(span):.1f}" y2="{sy(span):.1f}" '
        'stroke="gray" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    # rail for infinite deaths
    out.append(
        f'<line x1="{ml:.1f}" y1="{sy(rail):.1f}" x2="{sx(span * 1.15):.1f}" y2="{sy(rail):.1f}" '
        'stroke="gray" stroke-width="1" stroke-dasharray="2 4"/>'
    )
    out.append(
        f'<text x="{ml + 4:.1f}" y="{sy(rail) - 4:.1f}" font-size="11" fill="gray">inf</text>'
    )
    bars = zip(b.dims.tolist(), b.births.tolist(), b.deaths.tolist())
    for (dim, birth, death), count in sorted(Counter(bars).items()):
        y = rail if math.isinf(death) else death
        cx, cy = sx(birth), sy(y)
        out.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="{_color(dim)}" class="pt"/>'
        )
        if count > 1:
            out.append(
                f'<text x="{cx + 6:.2f}" y="{cy - 5:.2f}" font-size="11">x{count}</text>'
            )
    _write(path, out)


def _write(path, lines) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n</svg>\n")
