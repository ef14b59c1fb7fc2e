"""One-sample neighborhood hypothesis test for the extrinsic mean shape.

The null hypothesis places the population extrinsic mean within a chord
distance ``radius`` of a hypothesized shape m0.  The studentized statistic

    T_n = sqrt(n) (phi - radius^2) / s_n,

with phi the squared chord distance from the sample mean to m0 and s_n^2 a
plug-in variance built from the extrinsic sample covariance, is
asymptotically standard normal on the boundary of the null.  The test is
one-sided: evidence against the null is a large positive gap phi - radius^2,
so the null is rejected when T_n exceeds the upper alpha quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateVarianceError
from .shape_space import (
    EigenSystem,
    ExtrinsicCovariance,
    Preshape,
    chord_distance,
    extrinsic_covariance,
    extrinsic_mean,
)

__all__ = [
    "TestConfig",
    "TestResult",
    "squared_shape_distance",
    "tangent_offset",
    "studentizing_variance",
    "neighborhood_test",
    "critical_radius",
]


@dataclass(frozen=True)
class TestConfig:
    """Neighborhood radius (chord-distance units) and asymptotic level."""

    radius: float
    alpha: float = 0.05

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class TestResult:
    """Outcome of the neighborhood test.

    ``critical_radius`` is the largest neighborhood radius at which the null
    would still be rejected at the configured level.
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
    if m0.dimension != eigen.dimension:
        raise ValueError(f"dimension mismatch: {m0.dimension} vs {eigen.dimension}")
    p = eigen.eigenvectors.conj().T @ m0.coords  # p[a] = <e_{a+1}, m0>
    return np.sqrt(2.0) * p[1:] * np.conj(p[0])


def studentizing_variance(offset: np.ndarray, cov: ExtrinsicCovariance) -> float:
    """4 <offset, S offset>: the plug-in variance of the test statistic.

    The Hermitian quadratic form is real up to roundoff; the imaginary part
    is checked below 1e-10 and discarded, and small negative values are
    clamped to zero.
    """
    offset = np.asarray(offset, dtype=np.complex128)
    if offset.shape != (cov.dimension,):
        raise ValueError(f"offset has shape {offset.shape}, expected ({cov.dimension},)")
    q = 4.0 * (offset.conj() @ cov.entries @ offset)
    if abs(q.imag) > 1e-10:
        raise ValueError(f"quadratic form is not real: imaginary part {q.imag:.3e}")
    if q.real < -1e-10:
        raise ValueError(f"quadratic form is negative beyond tolerance: {q.real:.3e}")
    return max(0.0, float(q.real))


def _studentized_core(sample: Sequence[Preshape], m0: Preshape) -> tuple[float, float, int]:
    """Shared pipeline: returns (phi, s_n, n)."""
    n = len(sample)
    if n < 2:
        raise ValueError(f"need at least 2 shapes, got {n}")
    mean, eigen = extrinsic_mean(sample)
    phi = squared_shape_distance(mean, m0)
    cov = extrinsic_covariance(sample, eigen)
    offset = tangent_offset(eigen, m0)
    s = math.sqrt(studentizing_variance(offset, cov))
    return phi, s, n


def neighborhood_test(sample: Sequence[Preshape], m0: Preshape, config: TestConfig) -> TestResult:
    """Test whether the population mean shape lies within ``config.radius`` of m0.

    Raises :class:`FocalDistributionError` when the extrinsic mean is
    undefined and :class:`DegenerateVarianceError` when the studentizing
    variance vanishes (m0 coincides with the sample mean, or the sample is
    concentrated at a single shape), since the statistic cannot be formed.
    """
    phi, s, n = _studentized_core(sample, m0)
    # chord distances are bounded by sqrt(2), so s_n is an O(1)-scale quantity;
    # anything this small is roundoff, not variance
    if s < 1e-12:
        raise DegenerateVarianceError(
            "studentizing variance is numerically zero: the hypothesized shape "
            "coincides with the sample mean shape, or the sample is concentrated "
            "at a single shape"
        )
    # imported here, not at module level: scipy costs ~0.27 s to import and
    # only the test and its critical radius need it
    from scipy.special import ndtr, ndtri

    xi = float(ndtri(1.0 - config.alpha))
    t = math.sqrt(n) * (phi - config.radius**2) / s
    p = float(ndtr(-t))
    return TestResult(
        squared_distance=phi,
        std_error=s,
        statistic=t,
        p_value=p,
        reject=t > xi,
        critical_radius=_radius_at_level(phi, s, n, config.alpha),
    )


def critical_radius(sample: Sequence[Preshape], m0: Preshape, alpha: float = 0.05) -> float:
    """Largest neighborhood radius at which the null is rejected at level alpha.

    Solves T_n = xi_{1-alpha} for the radius: the squared solution is
    phi - xi s_n / sqrt(n), clamped at zero.  The test rejects at any smaller
    radius and fails to reject at any larger one.  Unlike the test itself
    this remains well defined when s_n = 0 (then the solution is simply phi).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    phi, s, n = _studentized_core(sample, m0)
    return _radius_at_level(phi, s, n, alpha)


def _radius_at_level(phi: float, s: float, n: int, alpha: float) -> float:
    """sqrt(max(0, phi - xi_{1-alpha} s_n / sqrt(n))): the radius where T_n = xi_{1-alpha}."""
    from scipy.special import ndtri

    xi = float(ndtri(1.0 - alpha))
    return math.sqrt(max(0.0, phi - xi * s / math.sqrt(n)))
