"""Preshapes, the Veronese-Whitney embedding, extrinsic means, and extrinsic covariance.

A planar configuration of k points, viewed up to translation and scale, is a
*preshape*: a centered complex k-vector of unit norm.  Its direct-similarity
shape is the preshape up to multiplication by a unit complex scalar, i.e. a
point of complex projective space.  The Veronese-Whitney (VW) embedding sends
the shape of gamma to the rank-one Hermitian projector gamma gamma^H in
Hilbert-Schmidt space; the induced chord distance and the resulting extrinsic
(Frechet) mean have closed forms driven by one Hermitian eigendecomposition
of the averaged embedded matrix M = (1/n) sum gamma_i gamma_i^H.

M has rank at most n.  :func:`extrinsic_mean` takes its eigensystem from one
thin SVD of the n stacked preshapes, O(k n min(k, n)), and never forms M;
with fewer shapes than landmarks (n < k) this is the dual form of Kent 1994,
*The complex Bingham distribution and shape analysis*.  :func:`mean_matrix`
and :func:`eigensystem` are the explicit k x k forms, for matrices a caller
supplies.  Distances, covariances and tangent coordinates are computed
through inner-product shortcuts on the returned eigenvectors, which are
validated against explicit Hilbert-Schmidt arithmetic in the test suite.
:func:`approximation_errors` measures how far random k-gons of a contour
are from it, in length and in shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contour import (
    Contour,
    ParamCurve,
    _as_complex_vector,
    _cum_lengths,
    _fill,
    _interpolate,
    _require_polygons,
    _substream,
    _unit_scaled,
    select_stopping_times,
)
from .errors import DegenerateContourError, FocalDistributionError

__all__ = [
    "DEFAULT_GAP_TOL",
    "Preshape",
    "EigenSystem",
    "preshape",
    "chord_distance",
    "register_vertex_order",
    "mean_matrix",
    "eigensystem",
    "extrinsic_mean",
    "extrinsic_covariance",
    "approximation_errors",
]

# Relative spectral gaps below this are treated as focal: the mean direction
# would be dominated by eigensolver noise.
DEFAULT_GAP_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Preshape:
    """Centered, unit-norm complex k-vector representing a configuration.

    The shape it denotes is the equivalence class of ``coords`` under unit
    complex scalars; all shape-level quantities in this module depend on the
    coordinates only through phase-invariant expressions.
    """

    coords: np.ndarray

    def __post_init__(self):
        c = _as_complex_vector(self.coords)
        if len(c) < 3:
            raise ValueError("preshape coordinates must be a complex vector of length >= 3")
        if abs(c.sum()) > 1e-10:
            raise ValueError(f"preshape is not centered: |sum| = {abs(c.sum()):.3e}")
        nrm = np.linalg.norm(c)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"preshape is not unit norm: ||coords|| = {nrm!r}")
        _fill(self, coords=c)

    @property
    def dimension(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Descending eigenpairs of a Hermitian k x k matrix, r <= k of them.

    ``eigenvectors`` holds r orthonormal eigenvectors in its k x r columns,
    ordered to match ``eigenvalues``.  Eigenvalues not listed are zero: the
    mean matrix of n < k shapes is described on its range, r = n.  Each
    column is phase-normalized so that its largest-magnitude entry is real
    and positive, making the decomposition reproducible across runs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=np.float64)
        v = np.asarray(self.eigenvectors, dtype=np.complex128)
        if v.ndim != 2 or not 0 < v.shape[1] <= v.shape[0] or w.shape != (v.shape[1],):
            raise ValueError("eigenvalues/eigenvectors have inconsistent shapes")
        if (w[1:] > w[:-1]).any():
            raise ValueError("eigenvalues must be in descending order")
        gram = v.conj().T @ v
        if abs(gram - np.eye(len(w))).max() > 1e-10:
            raise ValueError("eigenvectors are not orthonormal within 1e-10")
        _fill(self, eigenvalues=w, eigenvectors=v)

    @property
    def dimension(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def gap(self) -> float:
        """Top spectral gap: largest eigenvalue minus the second largest (0 if not listed)."""
        second = self.eigenvalues[1] if len(self.eigenvalues) > 1 else 0.0
        return float(self.eigenvalues[0] - second)


def preshape(points: Contour | np.ndarray | Sequence[complex]) -> Preshape:
    """Center and normalize a point configuration, preserving vertex order."""
    pts = points.points if isinstance(points, Contour) else _as_complex_vector(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 ordered points")
    return _fill(Preshape, coords=_preshape_rows(_unit_scaled(pts)))


def _preshape_rows(points: np.ndarray) -> np.ndarray:
    """Preshape coordinates of each row of points, or of one: the kernel of :func:`preshape`.

    The rows must be at unit scale, so that the norm can neither overflow nor
    underflow: callers holding raw coordinates apply :func:`_unit_scaled`
    first, which is exact.
    """
    k = points.shape[-1]
    centered = points - points.sum(axis=-1, keepdims=True) / k
    # second pass kills roundoff from large offsets
    centered = centered - centered.sum(axis=-1, keepdims=True) / k
    nrm = np.array([np.linalg.norm(row) for row in centered.reshape(-1, k)])
    if not (nrm > 0.0).all():
        raise DegenerateContourError("all points are equal; no shape after centering")
    return centered / nrm.reshape(points.shape[:-1] + (1,))


def _require_same_dimension(a: Preshape | EigenSystem, b: Preshape | EigenSystem) -> None:
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")


def chord_distance(a: Preshape, b: Preshape) -> float:
    """Hilbert-Schmidt distance between the embedded shapes.

    Computed as sqrt(2 (1 - |<a, b>|^2)) without materializing matrices; the
    shortcut agrees with the explicit norm ||a a^H - b b^H||.  For nearly
    aligned shapes the cancellation in 1 - |<a, b>|^2 limits resolution to
    ~sqrt(eps), so that regime switches to the algebraically identical
    projection-residual form sqrt(2) ||b - <a, b> a||, which resolves
    distances down to machine precision (symmetrized so the metric stays
    exactly symmetric).
    """
    _require_same_dimension(a, b)
    return _chord(a.coords, b.coords)


def _chord(a: np.ndarray, b: np.ndarray) -> float:
    """:func:`chord_distance` between two preshape coordinate vectors."""
    ip = np.vdot(a, b)
    ip_sq = abs(ip) ** 2
    if ip_sq <= 1.0 - 1e-8:
        return float(np.sqrt(2.0 * (1.0 - ip_sq)))
    res_ab = np.linalg.norm(b - ip * a)
    res_ba = np.linalg.norm(a - np.conj(ip) * b)
    return float(np.sqrt(2.0 * res_ab * res_ba))


def register_vertex_order(shape: Preshape, reference: Preshape) -> Preshape:
    """The relabelling of ``shape``'s vertices nearest ``reference`` in chord distance.

    The candidates are the k cyclic shifts of ``shape``, then the k cyclic
    shifts of its reversal, so neither the start vertex nor the direction of
    travel matters; shift 0 of ``shape`` is ``shape`` itself.  The first
    candidate whose |<reference, candidate>| lies within 1e-13 of the largest
    wins, so ties go to the first and FFT roundoff cannot break them.  All 2k
    inner products come from one circular cross-correlation by FFT,
    O(k log k), as in the start-point search of Srivastava, Klassen, Joshi &
    Jermyn, *Shape analysis of elastic curves in Euclidean spaces*, IEEE TPAMI
    2011.  Relabelling moves neither the centroid nor the norm.
    """
    _require_same_dimension(shape, reference)
    labels = np.stack((shape.coords, shape.coords[::-1]))
    # entry [r, j] is |<reference, np.roll(labels[r], j)>|
    ips = np.abs(np.fft.ifft(np.fft.fft(reference.coords) * np.fft.fft(labels).conj()))
    reverse, shift = divmod(int(np.argmax(ips >= ips.max() - 1e-13)), shape.dimension)
    return _fill(Preshape, coords=np.roll(labels[reverse], shift))


def _stack(sample: Sequence[Preshape]) -> np.ndarray:
    try:
        gam = np.array([s.coords for s in sample])
    except ValueError:  # rows of different lengths
        gam = np.empty(0)
    if gam.ndim != 2:  # mixed dimensions, or an empty sample
        dims = sorted({s.dimension for s in sample})
        raise ValueError(f"sample mixes dimensions: {dims}" if dims else "empty sample")
    return gam


def mean_matrix(sample: Sequence[Preshape]) -> np.ndarray:
    """Average of the embedded matrices (1/n) sum gamma_i gamma_i^H, symmetrized."""
    gam = _stack(sample)
    m = gam.T @ gam.conj() / len(sample)
    return (m + m.conj().T) / 2.0


def _hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """A caller's matrix, complex: square, finite, Hermitian to 1e-12 of max(1, largest entry)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite entry")
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    if np.max(np.abs(a - a.conj().T), initial=0.0) > 1e-12 * scale:
        raise ValueError(f"{what} is not Hermitian within 1e-12 of its largest entry")
    return a


def eigensystem(m: np.ndarray) -> EigenSystem:
    """Full descending Hermitian eigendecomposition with a fixed phase convention."""
    w, v = np.linalg.eigh(_hermitian(m, "matrix"))
    if not len(w):
        raise ValueError("expected a nonempty matrix, got shape (0, 0)")
    # descending, in eigh's memory order: sums and products over reversed views round otherwise
    return _fill(EigenSystem, eigenvalues=w[::-1].copy(), eigenvectors=_phase(v[:, ::-1].copy()))


def _phase(v: np.ndarray) -> np.ndarray:
    """Rotate each column, in place, so that its largest-magnitude entry is real and positive."""
    lead = abs(v).argmax(axis=0)
    pivots = v[lead, np.arange(v.shape[1])]
    return np.multiply(v, np.abs(pivots) / pivots, out=v)  # v * rotation's bits, in place


def _require_gap(eigen: EigenSystem) -> None:
    top = eigen.eigenvalues[0]
    if not top > 0.0 or eigen.gap / top < DEFAULT_GAP_TOL:
        raise FocalDistributionError(
            "top eigenvalue of the mean matrix is not simple "
            f"(relative gap {0.0 if top <= 0 else eigen.gap / top:.3e} "
            f"< {DEFAULT_GAP_TOL:.1e}); the extrinsic mean is not well defined for this sample"
        )


def extrinsic_mean(sample: Sequence[Preshape]) -> tuple[Preshape, EigenSystem]:
    """Extrinsic (VW) mean shape of a sample, with the mean matrix's eigensystem.

    The mean is the projective point of the top eigenvector of the averaged
    embedded matrix M.  With Gamma^T / sqrt(n) = U S W^H (thin SVD, the
    sample in the rows of Gamma), M = U S^2 U^H: the eigensystem has
    r = min(n, k) pairs, all of M when n >= k and M on its range when n < k,
    and M itself is never formed.  Raises :class:`FocalDistributionError`
    when the relative top spectral gap is below ``DEFAULT_GAP_TOL``, in
    which case no unique minimizer of the Frechet function exists.
    """
    u, s, _ = np.linalg.svd(_stack(sample).T / math.sqrt(len(sample)), full_matrices=False)
    es = _fill(EigenSystem, eigenvalues=s**2, eigenvectors=_phase(u))
    _require_gap(es)
    # the top eigenvector is centered and unit-norm only to eigensolver
    # roundoff, which grows with n and k: re-center and renormalize it as
    # preshape() would, less the rescale that a unit vector does not need
    return _fill(Preshape, coords=_preshape_rows(es.eigenvectors[:, 0])), es


def extrinsic_covariance(sample: Sequence[Preshape], eigen: EigenSystem) -> np.ndarray:
    """Extrinsic sample covariance in the tangent coordinates at the mean.

    A read-only (r-1) x (r-1) Hermitian array whose entry (a, b), for
    a, b = 2..r over the r eigenpairs of ``eigen``, is

        n^-1 (l_1 - l_a)^-1 (l_1 - l_b)^-1
            sum_i <e_a, gamma_i> <e_b, gamma_i>* |<e_1, gamma_i>|^2

    with l_a the descending eigenvalues of the mean matrix, e_a its
    eigenvectors, and <x, y> = x^H y.  Requires the top eigenvalue to be
    simple; the spectral gaps to the remaining eigenvalues then cannot be
    smaller than the top gap.
    """
    gam = _stack(sample)
    _require_same_dimension(sample[0], eigen)
    _require_gap(eigen)
    proj = gam @ eigen.eigenvectors.conj()  # proj[i, a] = <e_a, gamma_i>
    weighted = proj[:, 1:] * np.abs(proj[:, :1])
    gaps = eigen.eigenvalues[0] - eigen.eigenvalues[1:]
    cov = np.einsum("ra,rb->ab", weighted, weighted.conj()) / (len(gam) * np.outer(gaps, gaps))
    cov = (cov + cov.conj().T) / 2.0
    cov.flags.writeable = False
    return cov


def approximation_errors(
    curves: Sequence[ParamCurve], k_grid: Sequence[int], repeats: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Relative length errors and squared shape distances of random k-gons, per k.

    For each k, repeat and curve, a fresh set of k stopping times is drawn
    from a substream keyed by (seed, k-index, repeat), one draw per curve in
    order: one uniform block for all the curves, which takes the same stream
    as a :func:`select_stopping_times` call per curve.  When k equals a
    curve's own vertex count its vertex fractions are used instead and nothing
    is drawn (the k-gon is the curve itself), so the length error is exactly
    zero and the shape error is chord roundoff.
    Returns two (len(k_grid), repeats * len(curves)) arrays, each row in draw
    order: repeat-major, curve-minor.
    """
    if len(curves) == 0 or len(k_grid) == 0:
        raise ValueError(f"need curves and k values, got {len(curves)} and {len(k_grid)}")
    if repeats < 1:
        raise ValueError(f"need repeats >= 1, got {repeats}")
    if min(k_grid) < 3:
        raise ValueError(f"need k >= 3 stopping times, got {min(k_grid)}")
    refs = [(c.cum_lengths[:-1] / c.total_length, preshape(c.vertices).coords) for c in curves]
    rows = []
    for ki, k in enumerate(k_grid):
        times = np.empty((len(curves), repeats, k))
        for i, (curve, (ref_fracs, _)) in enumerate(zip(curves, refs)):
            if k == len(curve):
                times[i] = ref_fracs
        drawn = [i for i, curve in enumerate(curves) if k != len(curve)]
        for rep in range(repeats):
            block = np.zeros((len(drawn), k))
            block[:, 1:] = _substream(seed, ki, rep).uniform(0.0, 1.0, size=(len(drawn), k - 1))
            block.sort(axis=1)
            if not (np.diff(block, axis=1) > 0).all():
                # a repeated time (probability ~k^2 * 2^-53) is redrawn by the
                # per-curve draws that the block stands for
                rng = _substream(seed, ki, rep)
                block = [select_stopping_times(k, rng).times for _ in drawn]
            times[drawn, rep] = block
        # (kind, curve, repeat) -> per kind in draw order
        rows.append(np.transpose(_approx_rows(curves, times, refs), (0, 2, 1)).reshape(2, -1))
    len_errs, shape_sqs = np.stack(rows, axis=1)
    return len_errs, shape_sqs


def _approx_rows(
    curves: Sequence[ParamCurve], times: np.ndarray, refs: Sequence[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Relative length errors and squared shape distances of k-gons: a (2, curves, repeats) array.

    ``times[i]`` holds one row of stopping times per k-gon of ``curves[i]``,
    and ``refs[i]`` that curve's vertex fractions and preshape coordinates.
    Each k-gon is parameterized by its own arclength and evaluated at the
    contour's vertex fractions; the shape error is the squared chord
    distance from that configuration to the contour's vertices.
    """
    kgons = np.array(
        [_interpolate(c.cum_lengths[None], c.vertices[None], t) for c, t in zip(curves, times)]
    )
    _require_polygons(kgons, f"a {times.shape[-1]}-gon")
    cum = _cum_lengths(kgons)
    if np.any(np.diff(cum) <= 0):
        raise DegenerateContourError("k-gon arclength is not strictly increasing")
    totals = np.array([c.total_length for c in curves])[:, None]
    shape_sqs = [
        # a configuration, not a contour: a zero-area k-gon maps reference
        # fractions f and 1 - f about its turning point to one point
        [_chord(g, ref) ** 2 for g in _preshape_rows(_unit_scaled(_interpolate(c, v, f[None])))]
        for c, v, (f, ref) in zip(cum, kgons, refs)
    ]
    return np.array([(totals - cum[..., -1]) / totals, shape_sqs])
