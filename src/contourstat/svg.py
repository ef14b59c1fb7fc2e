"""Minimal deterministic SVG emitter for closed shape overlays.

Output bytes are a pure function of the input: coordinates are formatted
with a fixed precision and no timestamps or ids are embedded, so identical
calls produce identical files.  The file is written path by path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .shape_space import Preshape

__all__ = ["PathStyle", "svg_render"]

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.8g %.8g %.8g %.8g">\n'
)
_TAIL = ' Z" fill="none" stroke="{}" stroke-width="{:.8g}" stroke-opacity="{:.8g}"/>\n'
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


@dataclass(frozen=True)
class PathStyle:
    """Stroke styling for one closed polyline.

    ``width`` is a multiple of the automatic base width (0.4% of the figure
    diagonal), so overlays look sensible at any coordinate scale.
    """

    stroke: str = "#000000"
    width: float = 1.0
    opacity: float = 1.0


def svg_render(shapes: Sequence[tuple[Preshape | np.ndarray, PathStyle]], path) -> None:
    """Render closed polylines to an SVG file, painted in the given order.

    Accepts preshapes or raw complex point arrays.  The viewBox is fitted to
    the union of all shapes with a 5% margin; the SVG y-axis points down, so
    the imaginary part is negated to keep the mathematical orientation.
    Every shape and style is read before the file is opened.
    """
    if not shapes:
        raise ValueError("nothing to render")
    ends = []
    for shape, _ in shapes:
        pts = _plane(shape)
        if len(pts):
            ends += [pts.min(axis=0), pts.max(axis=0)]
    lo = np.min(ends, axis=0)
    hi = np.max(ends, axis=0)
    span = hi - lo
    margin = 0.05 * max(float(span[0]), float(span[1]), 1e-30)
    origin = lo - margin
    size = span + 2 * margin
    base_width = 0.004 * float(np.hypot(size[0], size[1]))
    tails = [
        _TAIL.format(str(s.stroke).translate(_ESCAPES), s.width * base_width, s.opacity).encode()
        for _, s in shapes
    ]
    with open(path, "wb") as out:
        out.write((_HEADER % (*origin, *size)).encode())
        for (shape, _), tail in zip(shapes, tails):
            # one format call per point, on Python floats rather than numpy
            # scalars: this loop dominates at large k
            coords = " L ".join(["%.8g %.8g" % xy for xy in zip(*_plane(shape).T.tolist())])
            out.writelines((b'<path d="M ', coords.encode(), tail))
        out.write(b"</svg>\n")


def _plane(shape: Preshape | np.ndarray) -> np.ndarray:
    """A shape's points as (x, y) rows, y pointing down as in SVG."""
    pts = shape.coords if isinstance(shape, Preshape) else np.asarray(shape, dtype=complex)
    return np.stack((pts.real, -pts.imag), axis=1)
