import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

import contourstat as cs
from support import (
    centered_basis,
    draw_tangent_gaussian,
    embed,
    fused_studentized_variance,
    model_base,
    random_preshape,
    tangent_coordinates_oracle,
    wobbly_points,
)


def noisy_sample(k, n, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    base = random_preshape(k, rng)
    out = []
    for _ in range(n):
        out.append(cs.preshape(base.coords + scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))))
    return out


class TestSquaredShapeDistance:
    def test_self_zero(self):
        g = random_preshape(6, np.random.default_rng(0))
        assert cs.squared_shape_distance(g, g) < 1e-24

    def test_orthogonal_two(self):
        rng = np.random.default_rng(1)
        base = random_preshape(6, rng)
        other = cs.Preshape(centered_basis(base.coords)[:, 0])
        assert cs.squared_shape_distance(base, other) == pytest.approx(2.0, abs=1e-12)

    def test_equals_chord_squared(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_preshape(5, rng), random_preshape(5, rng)
            assert cs.squared_shape_distance(a, b) == pytest.approx(
                cs.chord_distance(a, b) ** 2, abs=1e-14
            )


class TestTangentOffset:
    def test_zero_at_the_mean(self):
        sample = noisy_sample(6, 12, seed=3)
        mean, es = cs.extrinsic_mean(sample)
        rotated = cs.Preshape(mean.coords * np.exp(0.7j))
        assert np.max(np.abs(cs.tangent_offset(es, rotated))) < 1e-10

    def test_zero_when_m0_orthogonal_to_top_eigenvector(self):
        sample = noisy_sample(6, 12, seed=4)
        _, es = cs.extrinsic_mean(sample)
        e1 = es.eigenvectors[:, 0]
        # build a centered unit m0 orthogonal to e1
        rng = np.random.default_rng(5)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = v - v.mean()
        v = v - (np.vdot(e1, v)) * e1
        v = v - v.mean()  # e1 is centered, so this preserves orthogonality to ~1e-16
        m0 = cs.Preshape(v / np.linalg.norm(v))
        assert np.max(np.abs(cs.tangent_offset(es, m0))) < 1e-10

    def test_matches_explicit_projection_oracle(self):
        rng = np.random.default_rng(6)
        sample = noisy_sample(4, 9, seed=7)
        mean, es = cs.extrinsic_mean(sample)
        for _ in range(25):
            m0 = random_preshape(4, rng)
            v = embed(m0.coords) - embed(mean.coords)
            want = tangent_coordinates_oracle(v, es.eigenvectors)
            assert np.max(np.abs(cs.tangent_offset(es, m0) - want)) < 1e-10

    def test_dimension_mismatch(self):
        _, es = cs.extrinsic_mean(noisy_sample(5, 8, seed=8))
        with pytest.raises(ValueError):
            cs.tangent_offset(es, random_preshape(6, np.random.default_rng(9)))


class TestStudentizingVariance:
    def test_zero_offset(self):
        cov = cs.ExtrinsicCovariance(np.eye(4, dtype=complex))
        assert cs.studentizing_variance(np.zeros(4, dtype=complex), cov) == 0.0

    def test_identity_cov_unit_offset(self):
        cov = cs.ExtrinsicCovariance(np.eye(4, dtype=complex))
        nu = np.array([1.0, 0, 0, 0], dtype=complex)
        assert cs.studentizing_variance(nu, cov) == pytest.approx(4.0)

    def test_nonnegative_on_random_psd(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            cov = cs.ExtrinsicCovariance(x @ x.conj().T)
            nu = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            assert cs.studentizing_variance(nu, cov) >= 0.0

    def test_dimension_mismatch(self):
        cov = cs.ExtrinsicCovariance(np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            cs.studentizing_variance(np.zeros(4, dtype=complex), cov)


class TestNeighborhoodTest:
    def test_boundary_radius_gives_t_zero(self):
        sample = noisy_sample(6, 15, seed=11)
        m0 = random_preshape(6, np.random.default_rng(12))
        mean, _ = cs.extrinsic_mean(sample)
        phi = cs.squared_shape_distance(mean, m0)
        res = cs.neighborhood_test(sample, m0, cs.TestConfig(radius=np.sqrt(phi), alpha=0.05))
        assert res.statistic == pytest.approx(0.0, abs=1e-9)
        assert res.p_value == pytest.approx(0.5, abs=1e-9)
        assert not res.reject

    def test_radius_beyond_diameter_never_rejects(self):
        # squared chord distance is at most 2, so radius^2 > 2 forces T < 0
        sample = noisy_sample(5, 10, seed=13)
        m0 = random_preshape(5, np.random.default_rng(14))
        res = cs.neighborhood_test(sample, m0, cs.TestConfig(radius=1.5, alpha=0.05))
        assert res.statistic < 0
        assert not res.reject

    def test_p_value_is_upper_tail_of_statistic(self):
        sample = noisy_sample(6, 12, seed=15)
        m0 = random_preshape(6, np.random.default_rng(16))
        res = cs.neighborhood_test(sample, m0, cs.TestConfig(radius=0.4, alpha=0.05))
        assert res.p_value == pytest.approx(1.0 - float(ndtr(res.statistic)), abs=1e-12)

    def test_statistic_decreasing_in_radius(self):
        sample = noisy_sample(6, 12, seed=17)
        m0 = random_preshape(6, np.random.default_rng(18))
        stats = [
            cs.neighborhood_test(sample, m0, cs.TestConfig(radius=r, alpha=0.05)).statistic
            for r in (0.05, 0.2, 0.5, 0.9, 1.3)
        ]
        assert np.all(np.diff(stats) < 0)

    def test_internal_consistency_reject_iff_radius_below_critical(self):
        sample = noisy_sample(7, 20, seed=19)
        m0 = random_preshape(7, np.random.default_rng(20))
        crit = cs.critical_radius(sample, m0, alpha=0.05)
        assert crit > 0
        xi = float(ndtri(0.95))
        for factor in (0.7, 0.9, 0.999999, 1.000001, 1.1, 1.5):
            res = cs.neighborhood_test(sample, m0, cs.TestConfig(radius=factor * crit, alpha=0.05))
            assert res.reject == (factor < 1.0)
            assert res.reject == (res.statistic > xi)
            assert res.critical_radius == pytest.approx(crit, abs=1e-9)

    def test_phase_invariance_of_result(self):
        sample = noisy_sample(6, 14, seed=21)
        m0 = random_preshape(6, np.random.default_rng(22))
        config = cs.TestConfig(radius=0.3, alpha=0.1)
        base = cs.neighborhood_test(sample, m0, config)
        for theta in (0.4, -2.0):
            rotated = cs.Preshape(m0.coords * np.exp(1j * theta))
            res = cs.neighborhood_test(sample, rotated, config)
            assert res.squared_distance == pytest.approx(base.squared_distance, abs=1e-10)
            assert res.std_error == pytest.approx(base.std_error, abs=1e-10)
            assert res.statistic == pytest.approx(base.statistic, abs=1e-8)
            assert res.p_value == pytest.approx(base.p_value, abs=1e-10)
            assert res.critical_radius == pytest.approx(base.critical_radius, abs=1e-10)
            assert res.reject == base.reject

    def test_sample_phase_invariance_of_result(self):
        sample = noisy_sample(6, 14, seed=23)
        m0 = random_preshape(6, np.random.default_rng(24))
        config = cs.TestConfig(radius=0.3, alpha=0.1)
        base = cs.neighborhood_test(sample, m0, config)
        rng = np.random.default_rng(25)
        rotated = [cs.Preshape(s.coords * np.exp(1j * rng.uniform(0, 2 * np.pi))) for s in sample]
        res = cs.neighborhood_test(rotated, m0, config)
        assert res.squared_distance == pytest.approx(base.squared_distance, abs=1e-10)
        assert res.std_error == pytest.approx(base.std_error, abs=1e-10)
        assert res.statistic == pytest.approx(base.statistic, abs=1e-8)

    def test_fused_duplicate_implementation_agrees(self):
        rng = np.random.default_rng(26)
        for seed in range(10):
            sample = noisy_sample(6, 8, seed=100 + seed, scale=0.3)
            m0 = random_preshape(6, rng)
            gam = np.stack([s.coords for s in sample])
            want = fused_studentized_variance(gam, m0.coords)
            _, es = cs.extrinsic_mean(sample)
            cov = cs.extrinsic_covariance(sample, es)
            nu = cs.tangent_offset(es, m0)
            got = cs.studentizing_variance(nu, cov)
            assert got == pytest.approx(want, rel=1e-10)

    def test_small_sample_rejected(self):
        g = random_preshape(5, np.random.default_rng(27))
        with pytest.raises(ValueError):
            cs.neighborhood_test([g], g, cs.TestConfig(radius=0.1))

    def test_focal_sample_raises(self):
        rng = np.random.default_rng(28)
        base = random_preshape(5, rng)
        other = cs.Preshape(centered_basis(base.coords)[:, 0])
        with pytest.raises(cs.FocalDistributionError):
            cs.neighborhood_test([base, other], base, cs.TestConfig(radius=0.1))

    def test_degenerate_variance_raises_with_guidance(self):
        sample = noisy_sample(6, 10, seed=29)
        mean, _ = cs.extrinsic_mean(sample)
        with pytest.raises(cs.DegenerateVarianceError, match="coincides|concentrated"):
            cs.neighborhood_test(sample, mean, cs.TestConfig(radius=0.1))

    def test_concentrated_sample_degenerate_variance(self):
        g = random_preshape(6, np.random.default_rng(30))
        m0 = random_preshape(6, np.random.default_rng(31))
        with pytest.raises(cs.DegenerateVarianceError):
            cs.neighborhood_test([g, g, g], m0, cs.TestConfig(radius=0.1))


class TestCriticalRadius:
    def test_hypothesis_at_mean_gives_zero(self):
        sample = noisy_sample(6, 10, seed=32)
        mean, _ = cs.extrinsic_mean(sample)
        assert cs.critical_radius(sample, mean, alpha=0.05) == 0.0

    def test_inversion_property(self):
        k = 6
        base = model_base(k)
        frame = centered_basis(base)
        m0 = cs.preshape(np.sqrt(1 - 0.09) * base + 0.3 * frame[:, 0])
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sample = draw_tangent_gaussian(base, frame, 0.15, 25, rng)
            crit = cs.critical_radius(sample, m0, alpha=0.05)
            assert crit > 0
            low = cs.neighborhood_test(sample, m0, cs.TestConfig(radius=0.999 * crit, alpha=0.05))
            high = cs.neighborhood_test(sample, m0, cs.TestConfig(radius=1.001 * crit, alpha=0.05))
            assert low.reject
            assert not high.reject

    def test_invalid_alpha(self):
        sample = noisy_sample(5, 8, seed=33)
        m0 = random_preshape(5, np.random.default_rng(34))
        with pytest.raises(ValueError):
            cs.critical_radius(sample, m0, alpha=1.2)


class TestTestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cs.TestConfig(radius=0.0)
        with pytest.raises(ValueError):
            cs.TestConfig(radius=0.5, alpha=0.0)
        with pytest.raises(ValueError):
            cs.TestConfig(radius=0.5, alpha=1.0)


def pipeline_statistics(sample_points, m0_points, k, seed, delta, phases=None):
    """phi, s_n, T_n, p-value and critical_delta of contours run through the whole pipeline.

    Mirrors ``contourstat test`` for an m0 that is not already in
    correspondence; ``phases`` multiplies each preshape (m0 last) by a unit scalar.
    """
    curves = [cs.canonicalize(cs.Contour(p)) for p in sample_points]
    times = cs.build_correspondence(curves, "shared-times", k, np.random.default_rng(seed))
    shapes = [cs.preshape(cs.evaluate(c, times)) for c in curves]
    m0 = cs.preshape(cs.evaluate(cs.canonicalize(cs.Contour(m0_points)), times))
    if phases is not None:
        shapes = [cs.Preshape(s.coords * np.exp(1j * t)) for s, t in zip(shapes, phases)]
        m0 = cs.Preshape(m0.coords * np.exp(1j * phases[-1]))
    r = cs.neighborhood_test(shapes, m0, cs.TestConfig(delta, 0.05))
    return np.array([r.squared_distance, r.std_error, r.statistic, r.p_value, r.critical_radius])


class TestPipelineInvariance:
    """The test's outputs depend on each contour only through its similarity shape."""

    # Worst scaled drift |x' - x| / max(1, |x|), always on T_n (n 3-9, k 4-39):
    # 6.9e-12 over 3,000 random samples with |a| in 0.1-10 and |b| <= 141, and
    # 1.6e-11 over 1,200 at the corners |a| = 0.1 or 10, |b| = 141.
    TOL = 1e-10

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 9),
        k=st.integers(4, 39),
        delta=st.floats(0.01, 0.3),
    )
    def test_similarity_start_point_reversal_and_phase(self, seed, n, k, delta):
        rng = np.random.default_rng(seed)
        contours = []
        for _ in range(n + 1):  # the sample, then m0
            K = int(rng.integers(20, 80))
            pts = wobbly_points(K, amp3=0.2 + 0.1 * rng.random(), phase=rng.uniform(0, 2 * np.pi))
            contours.append(pts * (1 + 0.02 * rng.standard_normal(K)))
        base = pipeline_statistics(contours[:-1], contours[-1], k, seed, delta)
        a = 10 ** rng.uniform(-1, 1, n + 1) * np.exp(2j * np.pi * rng.random(n + 1))
        b = rng.uniform(-100, 100, n + 1) + 1j * rng.uniform(-100, 100, n + 1)
        shifts = rng.integers(0, 80, n + 1)
        reverse = rng.random(n + 1) < 0.5

        def moved(similarity):
            out = []
            for i, pts in enumerate(contours):
                if similarity:
                    pts = a[i] * pts + b[i]
                pts = np.roll(pts, shifts[i])
                out.append(pts[::-1] if reverse[i] else pts)
            return out

        relabelled = moved(similarity=False)
        got = pipeline_statistics(relabelled[:-1], relabelled[-1], k, seed, delta)
        assert np.array_equal(got, base)  # canonicalize undoes start point and direction exactly
        similar = moved(similarity=True)
        phases = 2 * np.pi * rng.random(n + 1)
        got = pipeline_statistics(similar[:-1], similar[-1], k, seed, delta, phases)
        drift = np.abs(got - base) / np.maximum(1.0, np.abs(base))
        assert drift.max() <= self.TOL, drift
