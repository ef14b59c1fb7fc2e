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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateContourError

__all__ = [
    "Contour",
    "ParamCurve",
    "StoppingTimes",
    "canonicalize",
    "select_stopping_times",
    "evaluate",
    "relative_length_error",
    "build_correspondence",
]


def _as_complex_vector(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D point sequence, got shape {arr.shape}")
    return arr


def _fill(value, **fields):
    """Set the fields of a frozen value, its arrays read-only, and return it.

    ``value`` is an instance, from its ``__post_init__`` once the checks have
    passed, and gets read-only copies of its caller's arrays; or a value type,
    whose new instance skips the checks and keeps the arrays it is handed,
    made read-only in place.  Library code passes a type only for values it
    derives from checked ones by operations that keep what the checks ensured,
    and only with arrays that the call has just computed and holds nowhere else.
    """
    copy = not isinstance(value, type)
    value = value if copy else object.__new__(value)
    for name, val in fields.items():
        if isinstance(val, np.ndarray):
            val = np.array(val) if copy else val  # a copy keeps the caller's memory order
            val.flags.writeable = False
        object.__setattr__(value, name, val)
    return value


def _closed_edges(points: np.ndarray) -> np.ndarray:
    """Edge vectors of the closed polygon (one per row), closing edge included."""
    return np.roll(points, -1, axis=-1) - points


def _cum_lengths(points: np.ndarray) -> np.ndarray:
    """Arclength at every vertex plus the closure, 0 first, for each row of points."""
    zero = np.zeros(points.shape[:-1] + (1,))
    return np.concatenate((zero, np.cumsum(np.abs(_closed_edges(points)), axis=-1)), axis=-1)


def _unit_scaled(points: np.ndarray) -> np.ndarray:
    """Each row of points times 2^-e, e the exponent of its largest coordinate.

    The power of two is exact and brings the largest coordinate into
    [0.5, 1), so that whatever the contour's scale, products of coordinates
    cannot overflow and underflow only where negligible against the largest.
    """
    parts = np.ascontiguousarray(points, dtype=np.complex128).view(np.float64)
    _, e = np.frexp(np.max(np.abs(parts), axis=-1, keepdims=True))
    return np.ldexp(parts, -e).view(np.complex128)


def _signed_area(points: np.ndarray) -> float:
    """Shoelace area of a polygon up to a power of two; positive for counterclockwise order.

    Taken about the lexicographically smallest vertex (numpy orders complex
    values by real, then imaginary part), so a polygon far from the origin
    keeps its sign instead of losing it to cancellation, and on coordinates
    rescaled by :func:`_unit_scaled`, so the products keep it at any finite
    scale.  That vertex and the terms, formed from real products, do not
    depend on where the vertex order starts, and ``math.fsum`` adds them
    exactly: every rotation of the order gives the same area and its reversal
    the negated one, even for a sliver whose area is roundoff.
    """
    rel = _unit_scaled(points - points.min())
    nxt = np.roll(rel, -1)
    return 0.5 * math.fsum((rel.real * nxt.imag - rel.imag * nxt.real).tolist())


def _require_finite(points: np.ndarray) -> None:
    """Reject a contour with a coordinate that is not finite, or whose perimeter overflows."""
    if not np.all(np.isfinite(points)):
        raise DegenerateContourError("contour has a coordinate that is not finite")
    with np.errstate(over="ignore"):
        perimeter = np.sum(np.abs(_closed_edges(points)))
    if not np.isfinite(perimeter):
        raise DegenerateContourError(
            "contour coordinates are too large: the contour's perimeter overflows"
        )


def _require_polygons(points: np.ndarray, what: str = "contour") -> None:
    """Reject closed polygons (one per row) with equal consecutive or < 3 distinct vertices."""
    if np.any(_closed_edges(points) == 0):
        raise DegenerateContourError(f"{what} has two equal consecutive points")
    # with no two neighbours equal, fewer than 3 distinct points means the
    # vertices alternate between two
    if np.any(np.all(points == np.roll(points, 2, axis=-1), axis=-1)):
        raise DegenerateContourError(f"{what} has fewer than 3 distinct points")


def _arc_centroid(points: np.ndarray) -> complex:
    """Centroid of the uniform (arclength) measure on the closed polygon.

    Edge-midpoint x edge-length quadrature, which is exact for polygons.
    """
    nxt = np.roll(points, -1)
    lengths = np.abs(nxt - points)
    return complex(((points + nxt) * 0.5 * lengths).sum() / lengths.sum())


@dataclass(frozen=True, eq=False)
class Contour:
    """Closed polygonal contour: ordered vertices, last joined implicitly to first.

    Requires finite coordinates, a perimeter that does not overflow, at
    least 3 distinct vertices and no two equal consecutive vertices (the
    closing pair included).  Simplicity is *not* enforced.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_complex_vector(self.points)
        if len(pts) < 3:
            raise DegenerateContourError(f"contour needs >= 3 points, got {len(pts)}")
        _require_finite(pts)
        _require_polygons(pts)
        _fill(self, points=pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class ParamCurve:
    """Closed polygon parameterized by arclength.

    ``cum_lengths`` holds the arclength at every vertex plus one final entry
    for the return to vertex 0, so ``cum_lengths[0] == 0`` and
    ``cum_lengths[-1] == total_length``; both are computed from the vertices.
    Vertex order is counterclockwise and vertex 0 is the designated start
    point of the parameterization.  The vertices are checked as a
    :class:`Contour`'s are: finite, with at least 3 distinct ones.  A polygon
    of zero signed area (collinear vertices) has no orientation and is
    accepted; arclength is well defined on it.
    """

    vertices: np.ndarray
    cum_lengths: np.ndarray = field(init=False)
    total_length: float = field(init=False)

    def __post_init__(self):
        verts = _as_complex_vector(self.vertices)
        _require_finite(verts)
        cum = _cum_lengths(verts)
        if np.any(np.diff(cum) <= 0):
            raise ValueError("cum_lengths must be strictly increasing")
        _require_polygons(verts)  # after the check above, only its distinct-point test can fail
        if _signed_area(verts) < 0:
            raise ValueError("curve must be oriented counterclockwise")
        _fill(self, vertices=verts, cum_lengths=cum, total_length=float(cum[-1]))

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
        _fill(self, times=t)

    @property
    def k(self) -> int:
        return len(self.times)


def canonicalize(contour: Contour | ParamCurve) -> ParamCurve:
    """Normalize orientation and start point, and parameterize by arclength.

    The vertex order is reversed if the signed (shoelace) area is negative,
    so travel is counterclockwise.  The start vertex is the one farthest from
    the arclength center of mass; among vertices whose distance is within
    1e-9 of the maximum (relative to the diameter) the tie is broken by the
    smallest counterclockwise angle from the positive real axis about the
    center.  Raises :class:`DegenerateContourError` when the signed area is
    zero, or when the arclength of the result is not strictly increasing: an
    edge too short to change the running length it is added to.
    """
    pts = contour.vertices if isinstance(contour, ParamCurve) else contour.points
    area = _signed_area(pts)
    if area == 0.0:
        raise DegenerateContourError("contour has zero signed area; orientation undefined")
    if area < 0.0:
        pts = pts[::-1]
    # decided on exactly rescaled points, so that no product over- or underflows;
    # nonzero area leaves no coordinate constant, so the largest, exact in
    # [0.5, 1), differs at some vertex: the length is positive and rmax too
    scaled = _unit_scaled(pts)
    center = _arc_centroid(scaled)
    radii = np.abs(scaled - center)
    rmax = float(radii.max())
    tol = 1e-9 * (2.0 * rmax)
    candidates = np.nonzero(radii >= rmax - tol)[0]
    angles = np.mod(np.angle(scaled[candidates] - center), 2.0 * np.pi)
    start = int(candidates[np.argmin(angles)])
    # a reversal and a rotation of a checked contour keep it finite, a polygon
    # and, by _signed_area's exactness, counterclockwise; only its arclength
    # can stall, on an edge lost to rounding against the length before it
    verts = np.roll(pts, -start)
    cum = _cum_lengths(verts)
    if np.any(np.diff(cum) <= 0):
        raise DegenerateContourError("contour arclength is not strictly increasing")
    return _fill(ParamCurve, vertices=verts, cum_lengths=cum, total_length=float(cum[-1]))


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
            return _fill(StoppingTimes, times=times)


def evaluate(curve: ParamCurve, times: StoppingTimes) -> Contour:
    """Evaluate the curve at arclength fractions, linearly interpolating edges.

    A fraction s maps to the point at arclength s * total_length.  Fractions
    that coincide with a vertex's own fraction return that vertex exactly, so
    evaluating at the vertex fractions reproduces the vertices bit for bit.
    Raises :class:`DegenerateContourError` where the k-gon is no polygon: for
    k < 3, or where times closer together than the coordinates resolve give
    it two equal consecutive vertices.
    """
    # finite, as its points lie on edges whose lengths sum to a finite perimeter
    kgon = _interpolate(curve.cum_lengths[None], curve.vertices[None], times.times[None])
    _require_polygons(kgon, f"its {times.k}-gon")
    return _fill(Contour, points=kgon[0])


def _interpolate(cum: np.ndarray, vertices: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Points of closed polygons at arclength fractions: the kernel of :func:`evaluate`.

    Each row of ``vertices`` is a polygon and the same row of ``cum`` its
    strictly increasing arclengths (:func:`_cum_lengths`); each row of ``s``
    holds fractions in [0, 1) for that polygon.  Either side may have a
    single row, which is then shared by every row of the other.
    """
    fracs = (cum / cum[:, -1:]).ravel()  # per row: 0 first, 1 last
    closed = np.concatenate((vertices, vertices[:, :1]), axis=1).ravel()
    if len(cum) == 1:
        idx = np.searchsorted(fracs, s)
    else:
        s = np.broadcast_to(s, (len(cum), s.shape[1]))
        idx = np.array([np.searchsorted(f, t) for f, t in zip(fracs.reshape(cum.shape), s)])
    # flat indices of the first vertex at or past s and of the one before it
    hi = cum.shape[1] * np.arange(len(cum))[:, None] + idx
    lo = hi - 1
    lo[idx == 0] += cum.shape[1]  # s == 0: before vertex 0 comes the closing vertex, vertex 0 again
    at_hi = fracs[hi]
    w = (s - fracs[lo]) / (at_hi - fracs[lo])  # s strictly inside (fracs[lo], at_hi) unless exact
    return np.where(at_hi == s, closed[hi], closed[lo] + w * (closed[hi] - closed[lo]))


def relative_length_error(reference_length: float, kgon: Contour) -> float:
    """(L_ref - L_kgon) / L_ref, the relative length deficit of the approximation."""
    if not reference_length > 0.0:
        raise ValueError("reference length must be positive")
    return (reference_length - float(_cum_lengths(kgon.points)[-1])) / reference_length


def build_correspondence(n: int, strategy: str, k: int, rng: np.random.Generator) -> StoppingTimes:
    """Choose the common evaluation times that put a sample of n curves in correspondence.

    ``shared-times`` draws one set of k fractions and applies it to every
    curve, so vertex j of one k-gon corresponds to vertex j of any other.
    ``union-of-times`` draws a set of k per curve and returns their sorted
    union; evaluating every curve at all union times preserves the
    correspondence while each curve contributes its own draw.  Only the
    number of curves enters, so the times can be drawn before any is read.
    """
    if n < 1:
        raise ValueError(f"need at least one curve, got {n}")
    if strategy == "shared-times":
        return select_stopping_times(k, rng)
    if strategy == "union-of-times":
        merged = np.unique(np.concatenate([select_stopping_times(k, rng).times for _ in range(n)]))
        return _fill(StoppingTimes, times=merged)
    raise ValueError(f"unknown correspondence strategy: {strategy!r}")
