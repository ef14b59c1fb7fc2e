"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The Monte Carlo criteria use the circular tangent-Gaussian
shape model from support.py, whose population mean direction is known by
symmetry and is re-estimated from a 10^6-draw sample, as the criteria demand.
"""

import time

import numpy as np
import pytest

import contourstat as cs
from support import (
    centered_basis,
    draw_tangent_gaussian,
    estimate_population_mean,
    frechet_value,
    fused_studentized_variance,
    max_edge_length,
    model_base,
    project_to_manifold,
    wobbly_contour,
    wobbly_points,
)


def report(num, name, ok, started):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} ({time.time() - started:.1f}s)")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_near_identical_kgon_distance():
    started = time.time()
    rng = np.random.default_rng(6)
    raw = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    raw[7] = 0.0
    raw[8:] -= raw.sum() / 292  # center while keeping coordinate 7 at zero
    gamma = raw / np.linalg.norm(raw)
    assert abs(gamma.sum()) < 1e-12 and abs(gamma[7]) == 0.0
    perturbed = gamma.copy()
    perturbed[7] += 0.01 * np.exp(0.3j)  # orthogonal to gamma since gamma[7] = 0
    d = cs.chord_distance(cs.Preshape(gamma), cs.preshape(perturbed))
    report(1, "near-identical k-gon distance", 0.0140 <= d <= 0.0143, started)


def test_02_frechet_minimizer_oracle():
    started = time.time()
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        sample = []
        for _ in range(10):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            sample.append(cs.preshape(v))
        mean, _ = cs.extrinsic_mean(sample)
        f_mean = frechet_value(mean, sample)
        # random-search oracle, vectorized: F(q) = 2 - (2/n) sum_i |<q, gamma_i>|^2
        q = rng.standard_normal((100_000, 8)) + 1j * rng.standard_normal((100_000, 8))
        q -= q.mean(axis=1, keepdims=True)
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        gam = np.stack([s.coords for s in sample])
        scores = 2.0 - (2.0 / len(sample)) * (np.abs(q @ gam.conj().T) ** 2).sum(axis=1)
        # the vectorized oracle must agree with the package operation
        for j in range(5):
            assert frechet_value(cs.Preshape(q[j]), sample) == pytest.approx(
                scores[j], abs=1e-12
            )
        violations += int(np.sum(scores < f_mean))
    report(2, "Frechet-minimizer oracle", violations == 0, started)


def test_03_similarity_invariance():
    started = time.time()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        raw = [
            wobbly_points(40, phase=float(rng.uniform(0, 2 * np.pi)))
            * (1 + 0.05 * rng.standard_normal(40))
            for _ in range(10)
        ]
        a = 0.0
        while abs(a) < 1e-3:
            a = complex(rng.standard_normal(), rng.standard_normal())
        b = 10 * complex(rng.standard_normal(), rng.standard_normal())
        mean1, _ = cs.extrinsic_mean([cs.preshape(p) for p in raw])
        mean2, _ = cs.extrinsic_mean([cs.preshape(a * p + b) for p in raw])
        worst = max(worst, cs.chord_distance(mean1, mean2))
    report(3, f"similarity invariance (worst {worst:.2e})", worst < 1e-9, started)


def test_04_duplicate_implementation_oracle_for_variance():
    started = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        sample = []
        for _ in range(8):
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            sample.append(cs.preshape(v))
        m0 = cs.preshape(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        gam = np.stack([s.coords for s in sample])
        want = fused_studentized_variance(gam, m0.coords)
        _, es = cs.extrinsic_mean(sample)
        cov = cs.extrinsic_covariance(sample, es)
        got = cs.studentizing_variance(cs.tangent_offset(es, m0), cov)
        worst = max(worst, abs(got - want) / abs(want))
    report(4, f"duplicate-implementation s_n^2 oracle (worst rel {worst:.2e})", worst < 1e-10, started)


def test_05_test_calibration_at_the_null_boundary():
    started = time.time()
    k, tau, n, reps, alpha = 8, 0.04, 200, 2000, 0.05
    base = model_base(k)
    frame = centered_basis(base)
    mu_pop = estimate_population_mean(base, frame, tau, 1_000_000, seed=777)
    m0 = cs.preshape(np.sqrt(1 - 0.45**2) * base + 0.45 * frame[:, 0])
    delta = cs.chord_distance(mu_pop, m0)  # population phi = delta^2 by construction
    rejects = 0
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=1234, spawn_key=(rep,)))
        sample = draw_tangent_gaussian(base, frame, tau, n, rng)
        rejects += cs.neighborhood_test(sample, m0, radius=delta, alpha=alpha).reject
    rate = rejects / reps
    report(5, f"test calibration (rate {rate:.4f})", 0.03 <= rate <= 0.07, started)


def test_06_critical_radius_inversion():
    started = time.time()
    k = 6
    base = model_base(k)
    frame = centered_basis(base)
    m0 = cs.preshape(np.sqrt(1 - 0.09) * base + 0.3 * frame[:, 0])
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=555, spawn_key=(seed,)))
        sample = draw_tangent_gaussian(base, frame, 0.15, 25, rng)
        crit, _, _ = cs.critical_radius(sample, m0, alpha=0.05)
        assert crit > 0
        low = cs.neighborhood_test(sample, m0, radius=0.999 * crit, alpha=0.05)
        high = cs.neighborhood_test(sample, m0, radius=1.001 * crit, alpha=0.05)
        violations += int(not low.reject) + int(high.reject)
    report(6, "critical-radius inversion", violations == 0, started)


def test_07_max_edge_convergence_and_length_error():
    started = time.time()
    curve = cs.canonicalize(wobbly_contour(2000))
    medians = []
    for k in (50, 100, 200, 400, 800):
        vals = [
            max_edge_length(
                cs.evaluate(curve, cs.select_stopping_times(k, np.random.default_rng(s)))
            )
            for s in range(50)
        ]
        medians.append(float(np.median(vals)))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    errs = [
        cs.relative_length_error(
            curve.total_length,
            cs.evaluate(curve, cs.select_stopping_times(300, np.random.default_rng(s))),
        )
        for s in range(50)
    ]
    mean_err = float(np.mean(errs))
    report(
        7,
        f"max-edge convergence (medians {['%.3f' % m for m in medians]}, "
        f"mean rel err at k=300 {mean_err:.2e})",
        decreasing and mean_err < 0.05,
        started,
    )


def test_08_bootstrap_coverage():
    started = time.time()
    k, tau, n, datasets, B = 8, 0.12, 30, 200, 400
    base = model_base(k)
    frame = centered_basis(base)
    mu_pop = estimate_population_mean(base, frame, tau, 1_000_000, seed=777)
    covered = 0
    for ds in range(datasets):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=4321, spawn_key=(ds,)))
        sample = draw_tangent_gaussian(base, frame, tau, n, rng)
        region = cs.bootstrap_region(sample, B=B, alpha=0.05, seed=4321 + ds)
        covered += cs.chord_distance(mu_pop, region.sample_mean) <= region.radius
    rate = covered / datasets
    report(8, f"bootstrap coverage (rate {rate:.3f})", 0.90 <= rate <= 0.99, started)


def test_09_linear_algebra_residuals():
    started = time.time()
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 33))
        x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        a = x @ x.conj().T
        es = cs.eigensystem(a)
        recon = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
        ok &= float(np.max(np.abs(a - recon))) < 1e-8
        p = project_to_manifold(a).entries
        ok &= float(np.max(np.abs(p @ p - p))) < 1e-10
        ok &= abs(float(np.trace(p).real) - 1.0) < 1e-10
        ok &= float(np.linalg.eigvalsh(p)[-2]) < 1e-10  # rank one
    report(9, "linear-algebra residuals", ok, started)
