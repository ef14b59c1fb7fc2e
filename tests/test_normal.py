"""The pure-Python normal CDF and quantile against ``scipy.special``, bit for bit.

``contourstat._normal`` ports the Cephes routines that scipy wraps, so every
probe must give the same double, NaN for NaN.  A platform whose ``exp`` or
``log`` rounds differently from the C library scipy was built against fails
here, loudly, rather than shifting a p-value in its last digit.
"""

import math

import numpy as np
import scipy.special

from contourstat._normal import ndtr, ndtri

E2 = math.exp(-2.0)
E32 = math.exp(-32.0)  # ndtri's z = sqrt(-2 log y) reaches 8 here


def ulps_around(values, count=8):
    """Each value and its ``count`` nearest doubles on either side."""
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    up = down = values
    for _ in range(count):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def assert_bit_equal(port, oracle, probes):
    got = np.array([port(float(x)) for x in probes])
    want = oracle(probes)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    differ = np.flatnonzero(got[~nan].view(np.uint64) != want[~nan].view(np.uint64))
    bad = [(probes[~nan][i], got[~nan][i], want[~nan][i]) for i in differ[:5]]
    assert differ.size == 0, f"{differ.size} of {probes.size} probes differ, first (x, got, want): {bad}"


def test_ndtri_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(20130)
    probes = np.concatenate(
        [
            rng.uniform(0.0, 1.0, 40_000),
            10.0 ** rng.uniform(-300.0, 0.0, 30_000),  # lower tail
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 30_000),  # within 1e-16 of 1
            10.0 ** rng.uniform(-323.5, -308.0, 2_000),  # subnormal
            # range boundaries: the central range, and z = 8 in both tails
            ulps_around([E2, 1.0 - E2, E32, 1.0 - E32, 0.5], count=64),
            E2 * (1.0 + rng.uniform(-1e-6, 1e-6, 2_000)),
            E32 * (1.0 + rng.uniform(-1e-6, 1e-6, 2_000)),
            [0.0, -0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0), math.nan],
            [-0.5, 1.5, -math.inf, math.inf, -5e-324],  # outside [0, 1]: NaN
        ]
    )
    assert probes.size >= 100_000
    assert_bit_equal(ndtri, scipy.special.ndtri, probes)


def test_ndtr_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(20131)
    sqrt2 = math.sqrt(2.0)
    # in erf units x / sqrt(2): erf below 1/sqrt(2), erfc's P/Q tables from
    # there to 8, its R/S tables beyond, and the MAXLOG underflow past ~26.6
    edges = np.array([1.0, sqrt2, 8.0 * sqrt2])
    probes = np.concatenate(
        [
            rng.uniform(-40.0, 40.0, 60_000),
            rng.uniform(-1.5, 1.5, 10_000),
            np.ravel([edges, -edges]),
            ulps_around(np.ravel([edges, -edges]), count=64),
            np.ravel([e * (1.0 + rng.uniform(-1e-4, 1e-4, 2_000)) for e in (*edges, *-edges)]),
            -sqrt2 * np.sqrt(rng.uniform(700.0, 720.0, 10_000)),  # exp(-a^2) underflows
            np.sign(rng.uniform(-1, 1, 10_000)) * 10.0 ** rng.uniform(-320.0, 0.0, 10_000),
            [0.0, -0.0, math.inf, -math.inf, 38.5, -38.5, math.nan, 5e-324, -5e-324],
        ]
    )
    assert probes.size >= 100_000
    assert_bit_equal(ndtr, scipy.special.ndtr, probes)
