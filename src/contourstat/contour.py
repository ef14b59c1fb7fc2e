"""Planar contours, arclength parameterization, and randomized k-gon approximation.

Contours are closed polygonal curves stored as complex vertex sequences
(x + iy).  A contour is brought into canonical form by orienting it
counterclockwise and starting it at the vertex farthest from its center of
mass; the canonical curve is then approximated by a k-gon obtained by
evaluating it at uniformly random arclength fractions ("stopping times").
Using one common set of stopping times across a sample induces a vertex
correspondence between its members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateContourError

__all__ = [
    "Contour",
    "ParamCurve",
    "StoppingTimes",
    "canonicalize",
    "select_stopping_times",
    "evaluate",
    "max_edge_length",
    "relative_length_error",
    "build_correspondence",
    "union_of_times",
]


def _as_complex_vector(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D point sequence, got shape {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


def _closed_edges(points: np.ndarray) -> np.ndarray:
    """Edge vectors of the closed polygon (one per row), closing edge included."""
    return np.roll(points, -1, axis=-1) - points


def _cum_lengths(points: np.ndarray) -> np.ndarray:
    """Arclength at every vertex plus the closure, 0 first, for each row of points."""
    zero = np.zeros(points.shape[:-1] + (1,))
    return np.concatenate((zero, np.cumsum(np.abs(_closed_edges(points)), axis=-1)), axis=-1)


def _signed_area(points: np.ndarray):
    """Shoelace area (one per row); positive for counterclockwise vertex order."""
    nxt = np.roll(points, -1, axis=-1)
    return 0.5 * np.sum(np.imag(np.conj(points) * nxt), axis=-1)


def _require_polygons(points: np.ndarray) -> None:
    """Reject closed polygons (one per row) with equal consecutive or < 3 distinct vertices."""
    if np.any(_closed_edges(points) == 0):
        raise DegenerateContourError("contour has two equal consecutive points")
    # with no two neighbours equal, fewer than 3 distinct points means the
    # vertices alternate between two
    if np.any(np.all(points == np.roll(points, 2, axis=-1), axis=-1)):
        raise DegenerateContourError("contour has fewer than 3 distinct points")


def _arc_centroid(points: np.ndarray) -> complex:
    """Centroid of the uniform (arclength) measure on the closed polygon.

    Edge-midpoint x edge-length quadrature, which is exact for polygons.
    """
    nxt = np.roll(points, -1)
    lengths = np.abs(nxt - points)
    total = lengths.sum()
    if not total > 0.0:
        raise DegenerateContourError("contour has zero total length")
    return complex(((points + nxt) * 0.5 * lengths).sum() / total)


@dataclass(frozen=True, eq=False)
class Contour:
    """Closed polygonal contour: ordered vertices, last joined implicitly to first.

    Requires at least 3 distinct vertices and no two equal consecutive
    vertices (the closing pair included).  Simplicity is *not* enforced.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_complex_vector(self.points)
        if len(pts) < 3:
            raise DegenerateContourError(f"contour needs >= 3 points, got {len(pts)}")
        _require_polygons(pts)
        object.__setattr__(self, "points", _freeze(pts))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class ParamCurve:
    """Closed polygon parameterized by arclength.

    ``cum_lengths`` holds the arclength at every vertex plus one final entry
    for the return to vertex 0, so ``cum_lengths[0] == 0`` and
    ``cum_lengths[-1] == total_length``.  Vertex order is counterclockwise
    and vertex 0 is the designated start point of the parameterization.  A
    polygon of zero signed area (collinear vertices) has no orientation and
    is accepted; arclength is well defined on it.
    """

    vertices: np.ndarray
    cum_lengths: np.ndarray
    total_length: float

    def __post_init__(self):
        verts = _as_complex_vector(self.vertices)
        cum = np.asarray(self.cum_lengths, dtype=np.float64)
        if len(cum) != len(verts) + 1:
            raise ValueError("cum_lengths must have one entry per vertex plus the closure")
        if cum[0] != 0.0:
            raise ValueError("cum_lengths must start at 0")
        if np.any(np.diff(cum) <= 0):
            raise ValueError("cum_lengths must be strictly increasing")
        if cum[-1] != self.total_length:
            raise ValueError("last cum_length must equal total_length")
        if _signed_area(verts) < 0:
            raise ValueError("curve must be oriented counterclockwise")
        object.__setattr__(self, "vertices", _freeze(verts))
        object.__setattr__(self, "cum_lengths", _freeze(cum))
        object.__setattr__(self, "total_length", float(self.total_length))

    @classmethod
    def from_vertices(cls, points) -> "ParamCurve":
        """Parameterize an already counterclockwise polygon, keeping vertex 0 as start."""
        pts = points.points if isinstance(points, Contour) else _as_complex_vector(points)
        cum = _cum_lengths(pts)
        return cls(pts, cum, float(cum[-1]))

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True, eq=False)
class StoppingTimes:
    """Sorted arclength fractions in [0, 1) at which a curve is evaluated.

    The first time is pinned at exactly 0 so the canonical start point is
    always a vertex of the resulting k-gon.
    """

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or len(t) == 0:
            raise ValueError("times must be a nonempty 1-D sequence")
        if t[0] != 0.0:
            raise ValueError("first stopping time must be exactly 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("stopping times must be strictly increasing")
        if t[-1] >= 1.0:
            raise ValueError("stopping times must lie in [0, 1)")
        object.__setattr__(self, "times", _freeze(t))

    @property
    def k(self) -> int:
        return len(self.times)

    def __len__(self) -> int:
        return len(self.times)


def canonicalize(contour: Contour | ParamCurve) -> ParamCurve:
    """Normalize orientation and start point, and parameterize by arclength.

    The vertex order is reversed if the signed (shoelace) area is negative,
    so travel is counterclockwise.  The start vertex is the one farthest from
    the arclength center of mass; among vertices whose distance is within
    1e-9 of the maximum (relative to the diameter) the tie is broken by the
    smallest counterclockwise angle from the positive real axis about the
    center.
    """
    pts = contour.vertices if isinstance(contour, ParamCurve) else contour.points
    pts = np.array(pts, copy=True)
    area = _signed_area(pts)
    if area == 0.0:
        raise DegenerateContourError("contour has zero signed area; orientation undefined")
    if area < 0.0:
        pts = pts[::-1].copy()
    center = _arc_centroid(pts)
    radii = np.abs(pts - center)
    rmax = float(radii.max())
    if not rmax > 0.0:
        raise DegenerateContourError("all contour points coincide with the center of mass")
    tol = 1e-9 * (2.0 * rmax)
    candidates = np.nonzero(radii >= rmax - tol)[0]
    angles = np.mod(np.angle(pts[candidates] - center), 2.0 * np.pi)
    start = int(candidates[np.argmin(angles)])
    rolled = np.roll(pts, -start)
    return ParamCurve.from_vertices(rolled)


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def select_stopping_times(k: int, rng: np.random.Generator) -> StoppingTimes:
    """Draw k sorted stopping times: a pinned 0 plus k-1 Uniform[0,1) draws."""
    if k < 3:
        raise ValueError(f"need k >= 3 stopping times, got {k}")
    while True:
        draws = rng.uniform(0.0, 1.0, size=k - 1)
        times = np.sort(np.concatenate(([0.0], draws)))
        # duplicate draws have probability ~k^2 * 2^-53; redraw rather than perturb
        if np.all(np.diff(times) > 0):
            return StoppingTimes(times)


def evaluate(curve: ParamCurve, times: StoppingTimes) -> Contour:
    """Evaluate the curve at arclength fractions, linearly interpolating edges.

    A fraction s maps to the point at arclength s * total_length.  Fractions
    that coincide with a vertex's own fraction return that vertex exactly, so
    evaluating at the vertex fractions reproduces the vertices bit for bit.
    """
    return Contour(_interpolate(curve.cum_lengths[None], curve.vertices[None], times.times[None])[0])


def _interpolate(cum: np.ndarray, vertices: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Points of closed polygons at arclength fractions: the kernel of :func:`evaluate`.

    Each row of ``vertices`` is a polygon and the same row of ``cum`` its
    strictly increasing arclengths (:func:`_cum_lengths`); each row of ``s``
    holds fractions in [0, 1) for that polygon.  Either side may have a
    single row, which is then shared by every row of the other.
    """
    rows = max(len(cum), len(s))
    fracs = np.broadcast_to(cum / cum[:, -1:], (rows, cum.shape[1]))  # 0 first, 1 last
    closed = np.broadcast_to(np.concatenate((vertices, vertices[:, :1]), axis=1), fracs.shape)
    s = np.broadcast_to(s, (rows, s.shape[1]))
    idx = np.array([np.searchsorted(f, t, side="left") for f, t in zip(fracs, s)])
    out = np.empty(s.shape, dtype=np.complex128)
    exact = np.take_along_axis(fracs, idx, axis=1) == s
    out[exact] = np.take_along_axis(closed, idx, axis=1)[exact]
    r, c = np.nonzero(~exact)
    j = idx[r, c]  # s strictly inside (fracs[r, j-1], fracs[r, j])
    w = (s[r, c] - fracs[r, j - 1]) / (fracs[r, j] - fracs[r, j - 1])
    out[r, c] = closed[r, j - 1] + w * (closed[r, j] - closed[r, j - 1])
    return out


def max_edge_length(kgon: Contour) -> float:
    """Longest edge of the closed polygon, closing edge included."""
    return float(np.abs(_closed_edges(kgon.points)).max())


def relative_length_error(reference_length: float, kgon: Contour) -> float:
    """(L_ref - L_kgon) / L_ref, the relative length deficit of the approximation."""
    if not reference_length > 0.0:
        raise ValueError("reference length must be positive")
    return (reference_length - float(_cum_lengths(kgon.points)[-1])) / reference_length


def union_of_times(times_list: Sequence[StoppingTimes]) -> StoppingTimes:
    """Sorted deduplicated union of several stopping-time sets."""
    if not times_list:
        raise ValueError("empty list of stopping times")
    merged = np.unique(np.concatenate([t.times for t in times_list]))
    return StoppingTimes(merged)


def build_correspondence(
    sample: Sequence[ParamCurve],
    strategy: str,
    k: int | Sequence[int],
    rng: np.random.Generator,
) -> StoppingTimes:
    """Choose the common evaluation times that put a sample in correspondence.

    ``shared-times`` draws one set of k fractions and applies it to every
    curve, so vertex j of one k-gon corresponds to vertex j of any other.
    ``union-of-times`` draws a set per curve (k may be a per-curve sequence)
    and returns their sorted union; evaluating every curve at all union times
    preserves the correspondence while letting curves be approximated at
    different resolutions.
    """
    if len(sample) == 0:
        raise ValueError("empty sample of curves")
    if strategy == "shared-times":
        if not isinstance(k, int):
            raise ValueError("shared-times needs a single integer k")
        return select_stopping_times(k, rng)
    if strategy == "union-of-times":
        ks = [k] * len(sample) if isinstance(k, int) else list(k)
        if len(ks) != len(sample):
            raise ValueError(f"need one k per curve, got {len(ks)} for {len(sample)} curves")
        return union_of_times([select_stopping_times(ki, rng) for ki in ks])
    raise ValueError(f"unknown correspondence strategy: {strategy!r}")
