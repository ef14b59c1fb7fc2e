"""One-sample neighborhood hypothesis test for the extrinsic mean shape.

The null hypothesis places the population extrinsic mean within a chord
distance ``radius`` of a hypothesized shape m0.  The studentized statistic

    T_n = sqrt(n) (phi - radius^2) / s_n,

with phi the squared chord distance from the sample mean to m0 and s_n^2 a
plug-in variance built from the extrinsic sample covariance, is
asymptotically standard normal on the boundary of the null.  The test is
one-sided: evidence against the null is a large positive gap phi - radius^2,
so the null is rejected when T_n exceeds the upper alpha quantile.

The quantile xi_{1-alpha} and the p-value come from ``_normal.ndtri`` and
``_normal.ndtr``, pure-Python ports of Moshier's Cephes routines (*Methods
and Programs for Mathematical Functions*, 1989) that equal
``scipy.special.ndtri``/``ndtr`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._normal import ndtr, ndtri
from .bootstrap import _require_alpha
from .errors import DegenerateVarianceError
from .shape_space import (
    EigenSystem,
    Preshape,
    _hermitian,
    _require_same_dimension,
    chord_distance,
    extrinsic_covariance,
    extrinsic_mean,
)

__all__ = [
    "TestResult",
    "squared_shape_distance",
    "tangent_offset",
    "studentizing_variance",
    "neighborhood_test",
    "critical_radius",
]


@dataclass(frozen=True)
class TestResult:
    """Outcome of the neighborhood test.

    ``critical_radius`` bounds the neighborhood radii at which the null is
    rejected at the test's level: ``reject`` is ``radius < critical_radius``.
    """

    squared_distance: float  # phi: squared chord distance from mean to m0
    std_error: float  # s_n
    statistic: float  # T_n
    p_value: float
    reject: bool
    critical_radius: float


def squared_shape_distance(shape: Preshape, m0: Preshape) -> float:
    """Squared chord distance between two shapes."""
    return chord_distance(shape, m0) ** 2


def tangent_offset(eigen: EigenSystem, m0: Preshape) -> np.ndarray:
    """Tangent coordinates of the embedded m0 relative to the embedded mean.

    Closed form of the frame coefficients of j(m0) - j(mean):
    sqrt(2) <e_a, m0> <m0, e_1> for a = 2..r over the eigenpairs of ``eigen``,
    with <x, y> = x^H y.  Validated against the explicit Hilbert-Schmidt
    projection in the tests.  Directions outside the listed eigenvectors
    carry zero sample covariance, so dropping them leaves s_n unchanged.  The
    result is covariant under the phase of m0, but every delivered test
    quantity is phase-invariant.
    """
    _require_same_dimension(m0, eigen)
    p = eigen.eigenvectors.conj().T @ m0.coords  # p[a] = <e_{a+1}, m0>
    return np.sqrt(2.0) * p[1:] * np.conj(p[0])


def studentizing_variance(offset: np.ndarray, cov: np.ndarray) -> float:
    """4 <offset, S offset>: the plug-in variance of the test statistic.

    ``cov`` is the extrinsic covariance S of :func:`extrinsic_covariance`,
    checked as :func:`eigensystem` checks its matrix, and ``offset`` must be
    finite.  The real part of the form is returned; a negative value within
    the form's roundoff, 1e-12 of 4 |offset|^T |S| |offset| (Higham 2002,
    section 3.1), is clamped to zero.
    """
    cov = _hermitian(cov, "covariance")
    offset = np.asarray(offset, dtype=np.complex128)
    if offset.shape != (len(cov),):
        raise ValueError(f"offset has shape {offset.shape}, expected ({len(cov)},)")
    if not np.isfinite(offset).all():
        raise ValueError("offset has a non-finite entry")
    q = 4.0 * (offset.conj() @ cov @ offset).real
    if q < -1e-12 * 4.0 * (abs(offset) @ abs(cov) @ abs(offset)):
        raise ValueError(f"quadratic form is negative beyond its roundoff: {q:.3e}")
    return max(0.0, float(q))


def neighborhood_test(
    sample: Sequence[Preshape], m0: Preshape, radius: float, alpha: float = 0.05
) -> TestResult:
    """Test at level alpha whether the population mean shape lies within ``radius`` of m0.

    ``radius`` is in chord-distance units.  Raises
    :class:`FocalDistributionError` when the extrinsic mean is undefined and
    :class:`DegenerateVarianceError` when the studentizing variance vanishes
    (m0 coincides with the sample mean, or the sample is concentrated at a
    single shape), since the statistic cannot be formed.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    crit, phi, s = critical_radius(sample, m0, alpha)
    # chord distances are bounded by sqrt(2), so s_n is an O(1)-scale quantity;
    # anything this small is roundoff, not variance
    if s < 1e-12:
        raise DegenerateVarianceError(
            "studentizing variance is numerically zero: the hypothesized shape "
            "coincides with the sample mean shape, or the sample is concentrated "
            "at a single shape"
        )
    t = math.sqrt(len(sample)) * (phi - radius * radius) / s
    return TestResult(
        squared_distance=phi,
        std_error=s,
        statistic=t,
        p_value=ndtr(-t),
        reject=radius < crit,
        critical_radius=crit,
    )


def critical_radius(
    sample: Sequence[Preshape], m0: Preshape, alpha: float = 0.05
) -> tuple[float, float, float]:
    """Largest neighborhood radius at which the null is rejected at level alpha.

    Solves T_n = xi_{1-alpha} for the radius: the squared solution is
    phi - xi s_n / sqrt(n), clamped at zero.  The test rejects at any smaller
    radius and fails to reject at any larger one.  Unlike the test itself
    this remains well defined when s_n = 0 (then the solution is simply phi).
    Returns (radius, phi, s_n): the radius with the two statistics it solves from.
    """
    _require_alpha(alpha)
    n = len(sample)
    if n < 2:
        raise ValueError(f"need at least 2 shapes, got {n}")
    mean, eigen = extrinsic_mean(sample)
    phi = squared_shape_distance(mean, m0)
    cov = extrinsic_covariance(sample, eigen)
    s = math.sqrt(studentizing_variance(tangent_offset(eigen, m0), cov))
    return math.sqrt(max(0.0, phi - ndtri(1.0 - alpha) * s / math.sqrt(n))), phi, s
