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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contour import Contour, _freeze
from .errors import DegenerateContourError, FocalDistributionError

__all__ = [
    "DEFAULT_GAP_TOL",
    "Preshape",
    "VWMatrix",
    "EigenSystem",
    "ExtrinsicCovariance",
    "preshape",
    "chord_distance",
    "frechet_value",
    "mean_matrix",
    "eigensystem",
    "extrinsic_mean",
    "extrinsic_covariance",
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
        c = np.asarray(self.coords, dtype=np.complex128)
        if c.ndim != 1 or len(c) < 3:
            raise ValueError("preshape coordinates must be a complex vector of length >= 3")
        if abs(c.sum()) > 1e-10:
            raise ValueError(f"preshape is not centered: |sum| = {abs(c.sum()):.3e}")
        nrm = np.linalg.norm(c)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"preshape is not unit norm: ||coords|| = {nrm!r}")
        object.__setattr__(self, "coords", _freeze(c))

    @property
    def dimension(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, eq=False)
class VWMatrix:
    """Hermitian trace-one k x k matrix: an embedded shape or an average of them.

    Positive semidefiniteness holds by construction for every matrix built
    here (rank-one projectors and convex combinations of them) and is
    asserted where eigenvalues are computed.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"matrix trace must be 1, got {tr!r}")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


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
        if np.any(np.diff(w) > 0):
            raise ValueError("eigenvalues must be in descending order")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(len(w)))) > 1e-10:
            raise ValueError("eigenvectors are not orthonormal within 1e-10")
        object.__setattr__(self, "eigenvalues", _freeze(w))
        object.__setattr__(self, "eigenvectors", _freeze(v))

    @property
    def dimension(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def gap(self) -> float:
        """Top spectral gap: largest eigenvalue minus the second largest (0 if not listed)."""
        second = self.eigenvalues[1] if len(self.eigenvalues) > 1 else 0.0
        return float(self.eigenvalues[0] - second)


@dataclass(frozen=True, eq=False)
class ExtrinsicCovariance:
    """Extrinsic sample covariance in tangent coordinates: (r-1) x (r-1) Hermitian."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("covariance is not Hermitian within 1e-10")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def preshape(points: Contour | np.ndarray | Sequence[complex]) -> Preshape:
    """Center and normalize a point configuration, preserving vertex order."""
    pts = points.points if isinstance(points, Contour) else np.asarray(points, dtype=np.complex128)
    if pts.ndim != 1 or len(pts) < 3:
        raise ValueError("need at least 3 ordered points")
    return Preshape(_preshape_rows(pts[None])[0])


def _preshape_rows(points: np.ndarray) -> np.ndarray:
    """Preshape coordinates of each row of points: the kernel of :func:`preshape`."""
    centered = points - points.mean(axis=1, keepdims=True)
    # second pass kills roundoff from large offsets
    centered = centered - centered.mean(axis=1, keepdims=True)
    nrm = np.array([np.linalg.norm(row) for row in centered])
    if not np.all(nrm > 0.0):
        raise DegenerateContourError("all points are equal; no shape after centering")
    return centered / nrm[:, None]


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
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
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


def frechet_value(candidate: Preshape, sample: Sequence[Preshape]) -> float:
    """Mean squared chord distance from the candidate to the sample."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    gam = _stack(sample)
    ips = np.abs(gam @ candidate.coords.conj()) ** 2
    return float(np.mean(2.0 * (1.0 - np.minimum(1.0, ips))))


def _stack(sample: Sequence[Preshape]) -> np.ndarray:
    dims = {s.dimension for s in sample}
    if len(dims) != 1:
        raise ValueError(f"sample mixes dimensions: {sorted(dims)}")
    return np.stack([s.coords for s in sample])


def mean_matrix(sample: Sequence[Preshape]) -> VWMatrix:
    """Average of the embedded matrices (1/n) sum gamma_i gamma_i^H."""
    if len(sample) == 0:
        raise ValueError("empty sample")
    gam = _stack(sample)
    m = gam.T @ gam.conj() / len(sample)
    return VWMatrix((m + m.conj().T) / 2.0)


def eigensystem(m: VWMatrix | np.ndarray) -> EigenSystem:
    """Full descending Hermitian eigendecomposition with a fixed phase convention."""
    a = m.entries if isinstance(m, VWMatrix) else np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.conj().T)) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian; eigensystem undefined")
    w, v = np.linalg.eigh(a)
    w = w[::-1].copy()
    v = _phase(v[:, ::-1].copy())
    recon = (v * w) @ v.conj().T
    if np.max(np.abs(a - recon)) > 1e-8 * scale:
        raise ValueError("eigendecomposition failed the reconstruction check")
    return EigenSystem(w, v)


def _phase(v: np.ndarray) -> np.ndarray:
    """Rotate each column so that its largest-magnitude entry is real and positive."""
    lead = np.argmax(np.abs(v), axis=0)
    pivots = v[lead, np.arange(v.shape[1])]
    return v * (np.abs(pivots) / pivots)


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
    n = len(sample)
    if n == 0:
        raise ValueError("empty sample")
    u, s, _ = np.linalg.svd(_stack(sample).T / math.sqrt(n), full_matrices=False)
    es = EigenSystem(s**2, _phase(u))
    _require_gap(es)
    # re-center and renormalize defensively; the top eigenvector is already
    # centered up to eigensolver roundoff because every gamma_i is
    return preshape(es.eigenvectors[:, 0]), es


def extrinsic_covariance(sample: Sequence[Preshape], eigen: EigenSystem) -> ExtrinsicCovariance:
    """Extrinsic sample covariance in the tangent coordinates at the mean.

    Entry (a, b), for a, b = 2..r over the r eigenpairs of ``eigen``, is

        n^-1 (l_1 - l_a)^-1 (l_1 - l_b)^-1
            sum_i <e_a, gamma_i> <e_b, gamma_i>* |<e_1, gamma_i>|^2

    with l_a the descending eigenvalues of the mean matrix, e_a its
    eigenvectors, and <x, y> = x^H y.  Requires the top eigenvalue to be
    simple; the spectral gaps to the remaining eigenvalues then cannot be
    smaller than the top gap.
    """
    gam = _stack(sample)
    n, k = gam.shape
    if k != eigen.dimension:
        raise ValueError(f"sample dimension {k} does not match eigensystem {eigen.dimension}")
    _require_gap(eigen)
    proj = gam @ eigen.eigenvectors.conj()  # proj[i, a] = <e_a, gamma_i>
    weighted = proj[:, 1:] * np.abs(proj[:, :1])
    gaps = eigen.eigenvalues[0] - eigen.eigenvalues[1:]
    cov = np.einsum("ra,rb->ab", weighted, weighted.conj()) / (n * np.outer(gaps, gaps))
    return ExtrinsicCovariance((cov + cov.conj().T) / 2.0)

