"""Nonpivotal nonparametric bootstrap confidence regions for the extrinsic mean.

Each resample draws n indices with replacement, recomputes the extrinsic
mean, and records its chord distance to the full-sample mean.  The
(1 - alpha) empirical quantile of those distances is the region radius: the
confidence region is the chord-distance ball of that radius around the
sample mean.  Resamples use independent substreams keyed by (seed, index),
so the result is a pure function of the sample and the seed.

Every mean, the full sample's and each resample's, comes from
:func:`~contourstat.shape_space.extrinsic_mean`, a thin SVD of the sample.
Every resampled mean matrix lives in the span of the n sample preshapes, so
when n + 1 < k the sample is written once in an orthonormal basis of
span{1, gamma_1..gamma_n}: each resample then costs an SVD of an (n + 1) x n
matrix instead of a k x n one, and its mean is lifted back to C^k.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contour import _freeze, _substream
from .errors import FocalDistributionError
from .shape_space import Preshape, chord_distance, extrinsic_mean

__all__ = ["BootstrapRegion", "resample_mean", "bootstrap_region", "align_rotation"]

logger = logging.getLogger(__name__)

_MAX_RETRIES = 100


@dataclass(frozen=True, eq=False)
class BootstrapRegion:
    """Bootstrap distances, quantile radius, and the means inside the region.

    ``radius`` is the 1-based order statistic at index ceil((1 - alpha) B) of
    the sorted distances; ``included`` flags the resampled means whose
    distance does not exceed it.
    """

    sample_mean: Preshape
    boot_means: tuple[Preshape, ...]
    distances: np.ndarray
    radius: float
    alpha: float
    included: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=np.float64)
        inc = np.asarray(self.included, dtype=bool)
        b = len(self.boot_means)
        if len(d) != b or len(inc) != b:
            raise ValueError("distances/included must have one entry per resample")
        if np.any(d < 0):
            raise ValueError("distances must be nonnegative")
        order_index = _quantile_index(self.alpha, b)
        if self.radius != float(np.sort(d)[order_index - 1]):
            raise ValueError("radius is not the stated order statistic of the distances")
        if not np.array_equal(inc, d <= self.radius):
            raise ValueError("included mask does not match distance <= radius")
        object.__setattr__(self, "distances", _freeze(d))
        object.__setattr__(self, "included", _freeze(inc))


def _quantile_index(alpha: float, b: int) -> int:
    """1-based order statistic index ceil((1 - alpha) B), robust to fp in the product."""
    return int(math.ceil((1.0 - alpha) * b - 1e-9))


def resample_mean(sample: Sequence[Preshape], rng: np.random.Generator) -> Preshape:
    """Extrinsic mean of one bootstrap resample (n draws with replacement).

    A degenerate resample whose mean matrix has a focal spectrum is retried
    with the next draws from ``rng``; after 100 retries the focal error is
    logged and re-raised.
    """
    n = len(sample)
    if n == 0:
        raise ValueError("empty sample")
    for attempt in range(_MAX_RETRIES + 1):
        idx = rng.integers(0, n, size=n)
        try:
            return extrinsic_mean([sample[i] for i in idx])[0]
        except FocalDistributionError as err:
            last = err
            logger.debug("focal resample on attempt %d: %s", attempt + 1, err)
    logger.error("resample_mean gave up after %d retries: %s", _MAX_RETRIES, last)
    raise last


def bootstrap_region(
    sample: Sequence[Preshape], B: int = 400, alpha: float = 0.05, seed: int = 0
) -> BootstrapRegion:
    """Bootstrap confidence region for the extrinsic mean shape.

    Deterministic given ``seed``: resample i always uses the substream keyed
    by (seed, i).  The resamples run on the sample's span coordinates (see
    the module docstring), which give the same means, spectral gaps and
    focal retries as the k x k problem up to roundoff.
    """
    if len(sample) < 2:
        raise ValueError(f"need at least 2 shapes, got {len(sample)}")
    if B < 50:
        raise ValueError(f"need B >= 50 resamples, got {B}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    mean, _ = extrinsic_mean(sample)
    basis, reduced = _span_coordinates(sample)
    boot = [resample_mean(reduced, _substream(seed, i)) for i in range(B)]
    if basis is not None:
        boot = [Preshape(basis @ b.coords) for b in boot]
    dist = np.array([chord_distance(b, mean) for b in boot])
    radius = float(np.sort(dist)[_quantile_index(alpha, B) - 1])
    return BootstrapRegion(
        sample_mean=mean,
        boot_means=tuple(boot),
        distances=dist,
        radius=radius,
        alpha=alpha,
        included=dist <= radius,
    )


def _span_coordinates(
    sample: Sequence[Preshape],
) -> tuple[np.ndarray | None, Sequence[Preshape]]:
    """The sample in an orthonormal k x (n + 1) basis of span{1, gamma_1..gamma_n}.

    The basis maps the constant vector of C^(n+1) onto that of C^k, so it
    carries centered vectors to centered vectors in both directions: the
    coordinates are preshapes, and ``basis @ x`` lifts a mean back.  When
    n + 1 >= k there is nothing to gain, and ``(None, sample)`` is returned.
    """
    n, k = len(sample), sample[0].dimension
    if n + 1 >= k:
        return None, sample
    gam = np.stack([s.coords for s in sample])
    ones = np.full((k, 1), 1.0 / math.sqrt(k))
    q, _ = np.linalg.qr(np.hstack((ones, gam.T)))
    q[:, 0] = ones[:, 0]  # QR leaves the sign of the first column to chance
    # Householder reflection swapping e_1 and the unit constant vector of C^d
    d = n + 1
    v = np.full(d, 1.0 / math.sqrt(d))
    v[0] -= 1.0
    basis = q @ (np.eye(d) - 2.0 * np.outer(v, v) / (v @ v))
    return basis, [Preshape(c) for c in gam @ basis.conj()]


def align_rotation(shape: Preshape, reference: Preshape) -> Preshape:
    """Rotate a shape's representative so it overlays the reference.

    Multiplies by the unit scalar e^{i theta}, theta = arg <shape, reference>
    with <x, y> = x^H y, which makes <reference, aligned> real and
    nonnegative; this is the chord-distance-optimal alignment.  When the
    inner product is zero every rotation is equally good and the shape is
    returned unchanged.
    """
    ip = np.vdot(shape.coords, reference.coords)
    if ip == 0:
        return shape
    return Preshape(shape.coords * (ip / abs(ip)))
