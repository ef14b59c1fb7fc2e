import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import contourstat as cs
from support import (  # noqa: F401 (public_constructors_agree is a fixture)
    VWMatrix,
    assert_frozen_and_unaliased,
    centered_basis,
    dense_extrinsic_mean,
    draw_tangent_gaussian,
    embed,
    explicit_mean_matrix,
    frechet_value,
    fused_studentized_variance,
    frame_matrices,
    hs_inner_real,
    model_base,
    project_to_manifold,
    public_constructors_agree,
    random_preshape,
    spectral_gap_coefficients,
    tangent_coordinates,
    tangent_coordinates_oracle,
    vw_embed,
    wobbly_contour,
    wobbly_points,
)


def orthogonal_pair(k, rng):
    """Two centered unit vectors with <a, b> = 0."""
    base = random_preshape(k, rng)
    frame = centered_basis(base.coords)
    return base, cs.Preshape(frame[:, 0])


class TestPreshape:
    def test_already_centered_quadruple(self):
        ps = cs.preshape([1, 1j, -1, -1j])
        assert np.allclose(ps.coords, [0.5, 0.5j, -0.5, -0.5j], atol=1e-15)

    def test_translation_invariant(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        a = cs.preshape(pts)
        b = cs.preshape(pts + (17.0 - 4.0j))
        assert np.allclose(a.coords, b.coords, atol=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        a = cs.preshape(pts)
        b = cs.preshape(pts * 37.5)
        assert np.allclose(a.coords, b.coords, atol=1e-13)

    def test_all_equal_points_rejected(self):
        with pytest.raises(cs.DegenerateContourError):
            cs.preshape([2 + 1j, 2 + 1j, 2 + 1j, 2 + 1j])

    @pytest.mark.parametrize(
        "build, points, message",
        [
            (cs.Preshape, np.zeros((2, 3)), r"expected a 1-D point sequence, got shape \(2, 3\)"),
            (cs.Preshape, [0.5**0.5, -(0.5**0.5)], "preshape coordinates must be a complex vector of length >= 3"),
            (cs.preshape, np.zeros((2, 3)), r"expected a 1-D point sequence, got shape \(2, 3\)"),
            (cs.preshape, [0, 1], "need at least 3 ordered points"),
        ],
        ids=["Preshape-2-D", "Preshape-2-points", "preshape-2-D", "preshape-2-points"],
    )
    def test_rejects_what_is_not_three_or_more_points(self, build, points, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(points)

    def test_type_validates_centering_and_norm(self):
        with pytest.raises(ValueError):
            cs.Preshape(np.array([1.0, 0, 0]))  # not centered
        v = np.array([1.0, -1.0, 0.0]) / np.sqrt(2) * 1.01  # centered, wrong norm
        with pytest.raises(ValueError):
            cs.Preshape(v)

    def test_frozen_and_unaliased(self):
        pts = wobbly_points(20) * 3.0 + 1.0
        shape = cs.preshape(pts)
        want = shape.coords.copy()
        pts[:] = 0
        assert_frozen_and_unaliased(shape, pts)
        assert np.array_equal(shape.coords, want)
        source = wobbly_contour(20)
        assert_frozen_and_unaliased(cs.preshape(source), source.points)


class TestVWEmbed:
    def test_rank_one_projector(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_preshape(6, rng)
            m = vw_embed(g).entries
            evals = np.linalg.eigvalsh(m)
            assert evals[-2] < 1e-10  # second largest eigenvalue
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(m @ m - m)) < 1e-10  # idempotent

    def test_projective_invariance(self):
        rng = np.random.default_rng(3)
        g = random_preshape(8, rng)
        for theta in (0.3, 1.2, -2.7):
            rotated = cs.Preshape(g.coords * np.exp(1j * theta))
            assert np.max(np.abs(vw_embed(rotated).entries - vw_embed(g).entries)) < 1e-14


class TestChordDistance:
    def test_identical_and_phase_equal(self):
        rng = np.random.default_rng(4)
        g = random_preshape(10, rng)
        assert cs.chord_distance(g, g) < 1e-12
        rotated = cs.Preshape(g.coords * np.exp(0.9j))
        assert cs.chord_distance(g, rotated) < 1e-12

    def test_orthogonal_shapes_sqrt_two(self):
        # ||a a^H - b b^H||^2 expands to 2 - 2 |<a,b>|^2 = 2 when <a,b> = 0
        a, b = orthogonal_pair(7, np.random.default_rng(5))
        assert cs.chord_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_near_identical_300gon_perturbation(self):
        # one coordinate nudged by 0.01 orthogonally to a unit-norm preshape
        rng = np.random.default_rng(6)
        raw = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        raw[7] = 0.0
        raw[8:] -= raw[:300].sum() / 292  # center while keeping entry 7 at zero
        g = raw / np.linalg.norm(raw)
        assert abs(g[7]) == 0.0
        perturbed = g.copy()
        perturbed[7] += 0.01 * np.exp(0.3j)
        d = cs.chord_distance(cs.Preshape(g), cs.preshape(perturbed))
        assert d == pytest.approx(0.0141, abs=2e-4)

    def test_shortcut_matches_explicit_hs_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = random_preshape(6, rng), random_preshape(6, rng)
            explicit = np.linalg.norm(embed(a.coords) - embed(b.coords))
            assert cs.chord_distance(a, b) == pytest.approx(explicit, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a, b, c = (random_preshape(5, rng) for _ in range(3))
            assert cs.chord_distance(a, b) == cs.chord_distance(b, a)
            assert cs.chord_distance(a, c) <= cs.chord_distance(a, b) + cs.chord_distance(b, c) + 1e-12

    def test_identity_of_indiscernibles_up_to_phase(self):
        rng = np.random.default_rng(9)
        g = random_preshape(6, rng)
        h = cs.Preshape(g.coords * np.exp(-1.4j))
        assert cs.chord_distance(g, h) < 1e-12
        other = random_preshape(6, rng)
        assert cs.chord_distance(g, other) > 1e-3

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match=r"^dimension mismatch: 5 vs 6$"):
            cs.chord_distance(random_preshape(5, rng), random_preshape(6, rng))


def relabellings(coords):
    """The 2k candidates of register_vertex_order in its order: shifts, then reversed shifts."""
    return [np.roll(c, j) for c in (coords, coords[::-1]) for j in range(len(coords))]


@pytest.mark.usefixtures("public_constructors_agree")
class TestRegisterVertexOrder:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
    def test_largest_inner_product_of_the_2k_relabellings(self, k, seed):
        rng = np.random.default_rng(seed)
        shape, reference = random_preshape(k, rng), random_preshape(k, rng)
        got = cs.register_vertex_order(shape, reference)
        best = max(abs(np.vdot(reference.coords, c)) for c in relabellings(shape.coords))
        assert any(np.array_equal(got.coords, c) for c in relabellings(shape.coords))
        assert abs(np.vdot(reference.coords, got.coords)) >= best - 2e-13

    @pytest.mark.parametrize("shift", [0, 1, 5, 10])
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_relabelled_copy_snaps_back(self, shift, reverse):
        rng = np.random.default_rng(11)
        reference = random_preshape(11, rng)
        moved = np.roll(reference.coords, shift)
        got = cs.register_vertex_order(cs.Preshape(moved[::-1] if reverse else moved), reference)
        assert np.array_equal(got.coords, reference.coords)

    def test_ties_take_the_first_candidate(self):
        # every relabelling of a third-harmonic octagon is orthogonal to the
        # regular octagon, up to roundoff: shift 0 wins
        k = 8
        square = cs.preshape(np.exp(2j * np.pi * np.arange(k) / k))
        shape = cs.preshape(np.exp(2j * np.pi * 3 * np.arange(k) / k))
        assert np.array_equal(cs.register_vertex_order(shape, square).coords, shape.coords)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="dimension mismatch: 5 vs 6"):
            cs.register_vertex_order(random_preshape(5, rng), random_preshape(6, rng))


class TestFrechetValue:
    def test_self_sample_zero(self):
        g = random_preshape(6, np.random.default_rng(11))
        assert frechet_value(g, [g]) == pytest.approx(0.0, abs=1e-14)

    def test_two_orthogonal_shapes_give_two(self):
        rng = np.random.default_rng(12)
        a, b = orthogonal_pair(6, rng)
        frame = centered_basis(a.coords)
        c = cs.Preshape(frame[:, 1])
        assert frechet_value(a, [b, c]) == pytest.approx(2.0, abs=1e-12)

    def test_mean_beats_random_candidates(self):
        rng = np.random.default_rng(13)
        sample = [random_preshape(8, rng) for _ in range(10)]
        mean, _ = cs.extrinsic_mean(sample)
        f_mean = frechet_value(mean, sample)
        for _ in range(10_000):
            q = random_preshape(8, rng)
            assert f_mean <= frechet_value(q, sample)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            frechet_value(random_preshape(5, np.random.default_rng(0)), [])


class TestMeanMatrix:
    def test_copies_give_projector(self):
        g = random_preshape(7, np.random.default_rng(14))
        m = cs.mean_matrix([g] * 5)
        assert np.max(np.abs(m - embed(g.coords))) < 1e-14

    def test_orthogonal_pair_half_half(self):
        a, b = orthogonal_pair(6, np.random.default_rng(15))
        m = cs.mean_matrix([a, b])
        evals = np.linalg.eigvalsh(m)[::-1]
        assert evals[0] == pytest.approx(0.5, abs=1e-12)
        assert evals[1] == pytest.approx(0.5, abs=1e-12)
        assert abs(evals[2]) < 1e-12

    def test_trace_one_any_sample(self):
        rng = np.random.default_rng(16)
        for n in (1, 4, 20):
            m = cs.mean_matrix([random_preshape(6, rng) for _ in range(n)])
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)

    def test_mixed_dimensions_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            cs.mean_matrix([random_preshape(5, rng), random_preshape(6, rng)])


@pytest.mark.usefixtures("public_constructors_agree")
class TestEigensystem:
    def test_projector_spectrum(self):
        g = random_preshape(6, np.random.default_rng(18))
        es = cs.eigensystem(vw_embed(g).entries)
        assert es.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(es.eigenvalues[1:])) < 1e-12
        top = es.eigenvectors[:, 0]
        assert abs(abs(np.vdot(top, g.coords)) - 1.0) < 1e-12

    def test_diagonal_matrix(self):
        es = cs.eigensystem(np.diag([0.6, 0.3, 0.1]).astype(complex))
        assert np.allclose(es.eigenvalues, [0.6, 0.3, 0.1])
        assert np.allclose(np.abs(es.eigenvectors), np.eye(3), atol=1e-12)

    def test_phase_convention_largest_entry_real_positive(self):
        rng = np.random.default_rng(19)
        sample = [random_preshape(6, rng) for _ in range(8)]
        es = cs.eigensystem(cs.mean_matrix(sample))
        for a in range(6):
            col = es.eigenvectors[:, a]
            lead = col[np.argmax(np.abs(col))]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real > 0

    def test_reconstruction_on_random_psd(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            k = int(rng.integers(3, 12))
            x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            a = x @ x.conj().T / k
            es = cs.eigensystem(a)
            recon = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
            assert np.max(np.abs(a - recon)) < 1e-8

    def test_leaves_the_callers_matrix_writable_and_unchanged(self):
        rng = np.random.default_rng(22)
        m = cs.mean_matrix([random_preshape(6, rng) for _ in range(8)])
        want = m.copy()
        es = cs.eigensystem(m)
        assert m.flags.writeable and np.array_equal(m, want)
        assert_frozen_and_unaliased(es, m)

    def test_pairs_in_their_own_c_ordered_arrays(self):
        # not reversed views of eigh's arrays: sums and products over those round otherwise
        rng = np.random.default_rng(23)
        es = cs.eigensystem(cs.mean_matrix([random_preshape(5, rng) for _ in range(3)]))
        assert es.eigenvalues.flags.c_contiguous and es.eigenvectors.flags.c_contiguous

    def test_non_hermitian_rejected(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            cs.eigensystem(bad)

    @pytest.mark.parametrize("bad", [np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 1.0])])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
            cs.eigensystem(bad)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a nonempty matrix, got shape \(0, 0\)$"):
            cs.eigensystem(np.zeros((0, 0)))
        # the covariance rule it shares with eigensystem does not reject an empty form
        assert cs.studentizing_variance(np.zeros(0), np.zeros((0, 0))) == 0.0

    def test_rank_r_system(self):
        # r <= k orthonormal columns; eigenvalues not listed are zero
        vecs = np.eye(5, dtype=complex)
        es = cs.EigenSystem(np.array([0.7, 0.3]), vecs[:, :2])
        assert es.dimension == 5
        assert es.gap == pytest.approx(0.4)
        assert cs.EigenSystem(np.array([1.0]), vecs[:, :1]).gap == 1.0
        for w, v in (([1.0, 0.0], vecs[:, :1]), ([], vecs[:, :0]), ([0.2] * 6, np.ones((5, 6)))):
            with pytest.raises(ValueError, match="inconsistent shapes"):
                cs.EigenSystem(np.array(w), v)

    @pytest.mark.parametrize(
        "w, v, message",
        [
            ([0.3, 0.7], np.eye(3)[:, :2], "eigenvalues must be in descending order"),
            ([0.7, 0.3], np.array([[1, 1], [0, 1], [0, 0]]), "eigenvectors are not orthonormal within 1e-10"),
        ],
        ids=["ascending", "not-orthonormal"],
    )
    def test_rejects_what_is_not_a_descending_orthonormal_system(self, w, v, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cs.EigenSystem(np.array(w), v)


class TestExtrinsicMean:
    def test_copies_recover_shape(self):
        g = random_preshape(9, np.random.default_rng(21))
        mean, es = cs.extrinsic_mean([g] * 4)
        assert cs.chord_distance(mean, g) < 1e-10
        assert es.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair_is_focal(self):
        a, b = orthogonal_pair(5, np.random.default_rng(22))
        with pytest.raises(cs.FocalDistributionError):
            cs.extrinsic_mean([a, b])

    def test_perturbed_cloud_mean_is_minimizer(self):
        rng = np.random.default_rng(23)
        base = random_preshape(10, rng)
        sample = []
        for _ in range(20):
            noisy = base.coords + 0.05 * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
            sample.append(cs.preshape(noisy))
        mean, _ = cs.extrinsic_mean(sample)
        assert cs.chord_distance(mean, base) < 0.2
        f_mean = frechet_value(mean, sample)
        for member in sample:
            assert f_mean <= frechet_value(member, sample)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(24)
        sample = [random_preshape(7, rng) for _ in range(9)]
        mean_fwd, _ = cs.extrinsic_mean(sample)
        mean_rev, _ = cs.extrinsic_mean(sample[::-1])
        assert cs.chord_distance(mean_fwd, mean_rev) < 1e-12

    def test_frozen_and_unaliased(self):
        sample = [random_preshape(7, np.random.default_rng(s)) for s in range(5)]
        mean, es = cs.extrinsic_mean(sample)
        inputs = [s.coords for s in sample]
        assert_frozen_and_unaliased(mean, *inputs, es.eigenvectors)
        assert_frozen_and_unaliased(es, *inputs)

    def test_similarity_invariance_of_raw_kgons(self):
        rng = np.random.default_rng(25)
        for seed in range(5):
            r = np.random.default_rng(seed)
            raw = [wobbly_points(40, phase=float(r.uniform(0, 2 * np.pi)))
                   * (1 + 0.05 * r.standard_normal(40)) for _ in range(8)]
            a = complex(*r.standard_normal(2))
            b = complex(*r.standard_normal(2)) * 10
            mean1, _ = cs.extrinsic_mean([cs.preshape(p) for p in raw])
            mean2, _ = cs.extrinsic_mean([cs.preshape(a * p + b) for p in raw])
            assert cs.chord_distance(mean1, mean2) < 1e-9

    def test_mixed_dimensions_rejected(self):
        rng = np.random.default_rng(26)
        mixed = [random_preshape(5, rng), random_preshape(6, rng)]
        _, es = cs.extrinsic_mean([random_preshape(5, rng) for _ in range(3)])
        for call in (
            lambda: cs.extrinsic_mean(mixed),
            lambda: cs.mean_matrix(mixed),
            lambda: cs.extrinsic_covariance(mixed, es),
        ):
            with pytest.raises(ValueError, match=r"^sample mixes dimensions: \[5, 6\]$"):
                call()

    def test_empty_sample_rejected(self):
        rng = np.random.default_rng(27)
        _, es = cs.extrinsic_mean([random_preshape(5, rng) for _ in range(3)])
        for call in (
            lambda: cs.extrinsic_mean([]),
            lambda: cs.mean_matrix([]),
            lambda: cs.extrinsic_covariance([], es),
        ):
            with pytest.raises(ValueError, match=r"^empty sample$"):
                call()


def tangent_sample(k, n, distinct, tau, seed):
    """n tangent-Gaussian shapes cycling through ``distinct`` draws, so rank <= distinct."""
    base = model_base(k)
    shapes = draw_tangent_gaussian(
        base, centered_basis(base), tau, distinct, np.random.default_rng(seed)
    )
    return [shapes[i % distinct] for i in range(n)]


def assert_matches_explicit(sample, m0):
    """The rank-min(n, k) eigensystem of n shapes against explicit k x k arithmetic.

    Checks the mean, the top two eigenvalues and, for n >= 2, s_n^2 against
    the term-by-term oracle.
    """
    gam = np.stack([s.coords for s in sample])
    n, k = gam.shape
    r = min(n, k)
    lam, V = np.linalg.eigh(explicit_mean_matrix(gam))
    lam, V = lam[::-1], V[:, ::-1]
    mean, es = cs.extrinsic_mean(sample)
    assert es.eigenvectors.shape == (k, r)
    assert es.dimension == k
    leads = es.eigenvectors[np.argmax(np.abs(es.eigenvectors), axis=0), np.arange(r)]
    assert np.all(leads.real > 0) and np.max(np.abs(leads.imag)) < 1e-12
    assert cs.chord_distance(mean, cs.preshape(V[:, 0])) < 1e-12
    top_two = np.append(es.eigenvalues, 0.0)[:2]
    assert np.max(np.abs(top_two - lam[:2])) < 1e-12
    assert es.gap == pytest.approx(lam[0] - lam[1], abs=1e-12)
    if n >= 2:
        cov = cs.extrinsic_covariance(sample, es)
        got = cs.studentizing_variance(cs.tangent_offset(es, m0), cov)
        want = fused_studentized_variance(gam, m0.coords)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-24)


class TestThinSvdPath:
    """extrinsic_mean: a thin SVD of the sample, no k x k matrix, for n < k and n >= k."""

    @pytest.mark.usefixtures("public_constructors_agree")
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(3, 20),
        data=st.data(),
        tau=st.floats(0.02, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_explicit_kxk(self, k, data, tau, seed):
        n = data.draw(st.integers(1, k + 5), label="n")
        distinct = data.draw(st.integers(1, n), label="distinct")
        sample = tangent_sample(k, n, distinct, tau, seed)
        lam = np.linalg.eigvalsh(explicit_mean_matrix(np.stack([s.coords for s in sample])))
        assume(lam[-1] - lam[-2] > 1e-6 * lam[-1])  # away from the focal boundary
        assert_matches_explicit(sample, random_preshape(k, np.random.default_rng(seed)))

    @pytest.mark.usefixtures("public_constructors_agree")
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(3, 40),
        data=st.data(),
        tau=st.floats(0.02, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mean_is_the_preshape_of_the_top_eigenvector(self, k, data, tau, seed):
        # the mean renormalizes a unit vector without preshape()'s exact
        # rescale, which changes no bit of it
        n = data.draw(st.integers(1, 2 * k), label="n")
        distinct = data.draw(st.integers(1, n), label="distinct")
        sample = tangent_sample(k, n, distinct, tau, seed)
        try:
            mean, es = cs.extrinsic_mean(sample)
        except cs.FocalDistributionError:
            assume(False)
        assert np.array_equal(mean.coords, cs.preshape(es.eigenvectors[:, 0]).coords)

    @pytest.mark.parametrize(
        "k, n, distinct",
        [(5, 1, 1), (12, 11, 11), (10, 7, 3), (10, 6, 1), (8, 8, 8), (6, 16, 16), (6, 16, 4)],
        ids=["n=1", "n=k-1", "rank<n", "identical", "n=k", "n>k", "n>k,rank<k"],
    )
    def test_regimes(self, k, n, distinct):
        sample = tangent_sample(k, n, distinct, 0.2, seed=40 + n)
        assert_matches_explicit(sample, random_preshape(k, np.random.default_rng(41)))

    def test_union_of_times_sample(self):
        curves = [
            cs.canonicalize(wobbly_contour(200, amp3=0.2 + 0.02 * i, phase=0.1 * i))
            for i in range(5)
        ]
        times = cs.build_correspondence(len(curves), "union-of-times", 25, np.random.default_rng(42))
        assert times.k > 100
        sample = [cs.preshape(cs.evaluate(c, times)) for c in curves]
        m0 = cs.preshape(cs.evaluate(cs.canonicalize(wobbly_contour(150, amp3=0.3)), times))
        assert_matches_explicit(sample, m0)

    def test_near_focal_pair_raises(self):
        # |<a, b>| = 1e-10 puts the relative gap of M at ~2e-10, below gap_tol
        a, b = orthogonal_pair(9, np.random.default_rng(43))
        near = cs.preshape(b.coords + 1e-10 * a.coords)
        lam = np.linalg.eigvalsh(explicit_mean_matrix(np.stack([a.coords, near.coords])))
        assert 0 < (lam[-1] - lam[-2]) / lam[-1] < cs.DEFAULT_GAP_TOL
        with pytest.raises(cs.FocalDistributionError):
            dense_extrinsic_mean([a, near])
        with pytest.raises(cs.FocalDistributionError):
            cs.extrinsic_mean([a, near])


class TestProjectToManifold:
    def test_projection_fixes_embedded_points(self):
        g = random_preshape(6, np.random.default_rng(26))
        j = vw_embed(g)
        p = project_to_manifold(j)
        assert np.max(np.abs(p.entries - j.entries)) < 1e-12

    def test_diagonal_example(self):
        p = project_to_manifold(np.diag([0.6, 0.4]).astype(complex))
        assert np.allclose(p.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_invariants_on_random_psd(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            k = int(rng.integers(2, 10))
            x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            a = x @ x.conj().T
            try:
                p = project_to_manifold(a).entries
            except cs.FocalDistributionError:
                continue
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.matrix_rank(p, tol=1e-8) == 1

    def test_focal_input_rejected(self):
        with pytest.raises(cs.FocalDistributionError):
            project_to_manifold(np.diag([0.5, 0.5]).astype(complex))


class TestTangentCoordinates:
    @staticmethod
    def eigen_from_sample(k, n, seed):
        rng = np.random.default_rng(seed)
        sample = [random_preshape(k, rng) for _ in range(n)]
        return cs.extrinsic_mean(sample)

    def test_zero_matrix(self):
        _, es = self.eigen_from_sample(5, 8, 28)
        assert np.all(tangent_coordinates(np.zeros((5, 5), dtype=complex), es) == 0)

    def test_frame_elements_give_unit_coefficients(self):
        _, es = self.eigen_from_sample(5, 8, 29)
        for a in range(1, 5):
            F, G = frame_matrices(es.eigenvectors, a)
            cf = tangent_coordinates(F, es)
            cg = tangent_coordinates(G, es)
            expect_f = np.zeros(4, dtype=complex)
            expect_f[a - 1] = 1.0
            assert np.allclose(cf, expect_f, atol=1e-12)
            assert np.allclose(cg, 1j * expect_f, atol=1e-12)

    def test_matches_explicit_projection_oracle(self):
        rng = np.random.default_rng(30)
        mean, es = self.eigen_from_sample(6, 10, 31)
        for _ in range(25):
            m0 = random_preshape(6, rng)
            v = embed(m0.coords) - embed(mean.coords)
            got = tangent_coordinates(v, es)
            want = tangent_coordinates_oracle(v, es.eigenvectors)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_dimension_mismatch(self):
        _, es = self.eigen_from_sample(5, 8, 32)
        with pytest.raises(ValueError):
            tangent_coordinates(np.zeros((6, 6), dtype=complex), es)


class TestExtrinsicCovariance:
    def test_identical_sample_gives_zero(self):
        g = random_preshape(6, np.random.default_rng(33))
        sample = [g] * 5
        _, es = cs.extrinsic_mean(sample)
        cov = cs.extrinsic_covariance(sample, es)
        assert np.max(np.abs(cov)) < 1e-20

    def test_hermitian_exactly(self):
        rng = np.random.default_rng(34)
        sample = [random_preshape(7, rng) for _ in range(12)]
        _, es = cs.extrinsic_mean(sample)
        cov = cs.extrinsic_covariance(sample, es)
        assert np.array_equal(cov, cov.conj().T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(35)
        sample = [random_preshape(6, rng) for _ in range(9)]
        _, es = cs.extrinsic_mean(sample)
        cov = cs.extrinsic_covariance(sample, es)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_hand_built_sample_term_by_term(self):
        # independent summation of the covariance entries, one (a, b, r) at a time
        rng = np.random.default_rng(36)
        sample = [random_preshape(4, rng) for _ in range(3)]
        _, es = cs.extrinsic_mean(sample)
        cov = cs.extrinsic_covariance(sample, es)
        lam, V = es.eigenvalues, es.eigenvectors
        n, r = 3, len(lam)
        for a in range(1, r):
            for b in range(1, r):
                acc = 0.0 + 0.0j
                for s in sample:
                    g = s.coords
                    acc += (
                        (V[:, a].conj() @ g)
                        * np.conj(V[:, b].conj() @ g)
                        * abs(V[:, 0].conj() @ g) ** 2
                    )
                want = acc / (n * (lam[0] - lam[a]) * (lam[0] - lam[b]))
                assert cov[a - 1, b - 1] == pytest.approx(want, abs=1e-12)

    def test_focal_spectrum_rejected(self):
        a, b = orthogonal_pair(5, np.random.default_rng(37))
        es = cs.eigensystem(cs.mean_matrix([a, b]))
        with pytest.raises(cs.FocalDistributionError):
            cs.extrinsic_covariance([a, b], es)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(38)
        _, es = cs.extrinsic_mean([random_preshape(6, rng) for _ in range(4)])
        with pytest.raises(ValueError, match="^dimension mismatch: 5 vs 6$"):
            cs.extrinsic_covariance([random_preshape(5, rng) for _ in range(4)], es)


class TestSpectralGapCoefficients:
    def test_arithmetic(self):
        es = cs.eigensystem(np.diag([0.9, 0.05, 0.05]).astype(complex))
        assert np.allclose(spectral_gap_coefficients(es), [1 / 0.85, 1 / 0.85])

    def test_point_mass_all_ones(self):
        g = random_preshape(5, np.random.default_rng(38))
        es = cs.eigensystem(vw_embed(g).entries)
        assert np.allclose(spectral_gap_coefficients(es), np.ones(4), atol=1e-10)

    def test_positive_and_monotone(self):
        # descending eigenvalues mean growing gaps, so the reciprocals shrink
        rng = np.random.default_rng(39)
        sample = [random_preshape(7, rng) for _ in range(15)]
        _, es = cs.extrinsic_mean(sample)
        coeffs = spectral_gap_coefficients(es)
        assert np.all(coeffs > 0)
        assert np.all(np.diff(coeffs) <= 1e-15)


class TestVWMatrixType:
    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            VWMatrix(bad)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            VWMatrix(np.diag([0.9, 0.9]).astype(complex))
