"""Minimal deterministic SVG emitter for closed shape overlays.

Output bytes are a pure function of the input: coordinates are formatted
with a fixed precision and no timestamps or ids are embedded, so identical
calls produce identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .shape_space import Preshape

__all__ = ["PathStyle", "svg_render"]

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'


@dataclass(frozen=True)
class PathStyle:
    """Stroke styling for one closed polyline.

    ``width`` is a multiple of the automatic base width (0.4% of the figure
    diagonal), so overlays look sensible at any coordinate scale.
    """

    stroke: str = "#000000"
    width: float = 1.0
    opacity: float = 1.0


def _fmt(value: float) -> str:
    return f"{value:.8g}"


def svg_render(shapes: Sequence[tuple[Preshape | np.ndarray, PathStyle]], path) -> None:
    """Render closed polylines to an SVG file, painted in the given order.

    Accepts preshapes or raw complex point arrays.  The viewBox is fitted to
    the union of all shapes with a 5% margin; the SVG y-axis points down, so
    the imaginary part is negated to keep the mathematical orientation.
    """
    if not shapes:
        raise ValueError("nothing to render")
    point_sets = []
    for shape, style in shapes:
        pts = shape.coords if isinstance(shape, Preshape) else np.asarray(shape, dtype=complex)
        point_sets.append((np.stack((pts.real, -pts.imag), axis=1), style))
    allpts = np.concatenate([p for p, _ in point_sets])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = hi - lo
    margin = 0.05 * max(float(span[0]), float(span[1]), 1e-30)
    origin = lo - margin
    size = span + 2 * margin
    diag = float(np.hypot(size[0], size[1]))
    base_width = 0.004 * diag
    lines = [
        _HEADER,
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(origin[0])} '
        f'{_fmt(origin[1])} {_fmt(size[0])} {_fmt(size[1])}">\n',
    ]
    for pts, style in point_sets:
        # the text of _fmt on each value, but one format call per point, on
        # Python floats rather than numpy scalars: this loop dominates at large k
        coords = " L ".join(["%.8g %.8g" % (x, y) for x, y in pts.tolist()])
        lines.append(
            f'<path d="M {coords} Z" fill="none" stroke="{style.stroke}" '
            f'stroke-width="{_fmt(style.width * base_width)}" '
            f'stroke-opacity="{_fmt(style.opacity)}"/>\n'
        )
    lines.append("</svg>\n")
    Path(path).write_bytes("".join(lines).encode("utf-8"))
