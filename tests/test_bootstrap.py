import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contourstat as cs
import contourstat.bootstrap as bootstrap_module
from contourstat.bootstrap import _substream
from support import (  # noqa: F401 (public_constructors_agree is a fixture)
    assert_frozen_and_unaliased,
    centered_basis,
    dense_extrinsic_mean,
    dense_resample_mean,
    draw_tangent_gaussian,
    model_base,
    public_constructors_agree,
    random_preshape,
    wobbly_contour,
)


def model_sample(n, seed, k=6, tau=0.15):
    base = model_base(k)
    frame = centered_basis(base)
    return draw_tangent_gaussian(base, frame, tau, n, np.random.default_rng(seed))


@pytest.mark.usefixtures("public_constructors_agree")
class TestResampleMean:
    def test_single_shape_sample(self):
        g = random_preshape(5, np.random.default_rng(0))
        for seed in range(5):
            out = cs.resample_mean([g], np.random.default_rng(seed))
            assert cs.chord_distance(out, g) < 1e-10

    def test_identical_sample(self):
        g = random_preshape(6, np.random.default_rng(1))
        out = cs.resample_mean([g] * 7, np.random.default_rng(2))
        assert cs.chord_distance(out, g) < 1e-10

    def test_reproducible_given_seed(self):
        sample = model_sample(12, seed=3)
        a = cs.resample_mean(sample, np.random.default_rng(11))
        b = cs.resample_mean(sample, np.random.default_rng(11))
        assert np.array_equal(a.coords, b.coords)

    def test_focal_resample_retries(self):
        # orthogonal pair: any resample drawing both shapes equally often is focal,
        # but retries eventually land on an unbalanced draw
        base = random_preshape(5, np.random.default_rng(4))
        other = cs.Preshape(centered_basis(base.coords)[:, 0])
        out = cs.resample_mean([base, other], np.random.default_rng(5))
        assert min(cs.chord_distance(out, base), cs.chord_distance(out, other)) < 1e-10

    def test_focal_hard_error_when_retries_exhausted(self, monkeypatch):
        base = random_preshape(5, np.random.default_rng(6))
        other = cs.Preshape(centered_basis(base.coords)[:, 0])
        # find a seed whose first draw is the balanced (focal) resample
        seed = next(
            s
            for s in range(1000)
            if sorted(np.random.default_rng(s).integers(0, 2, size=2)) == [0, 1]
        )
        monkeypatch.setattr(bootstrap_module, "_MAX_RETRIES", 0)
        with pytest.raises(cs.FocalDistributionError):
            cs.resample_mean([base, other], np.random.default_rng(seed))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            cs.resample_mean([], np.random.default_rng(0))


class TestBootstrapRegion:
    def test_takes_no_derived_field(self):
        params = list(inspect.signature(cs.BootstrapRegion).parameters)
        assert params == ["sample_mean", "boot_means", "distances", "alpha"]

    def test_radius_and_included_derived_from_distances(self):
        g = random_preshape(5, np.random.default_rng(0))
        dist = np.random.default_rng(1).uniform(0.0, 1.0, size=60)
        region = cs.BootstrapRegion(g, (g,) * 60, dist, alpha=0.1)
        # ceil(0.9 * 60) = 54: the 54th smallest distance
        assert region.radius == float(np.sort(dist)[53])
        assert np.array_equal(region.included, dist <= region.radius)
        assert int(region.included.sum()) == 54
        assert not region.included.flags.writeable

    def test_distances_checked(self):
        g = random_preshape(5, np.random.default_rng(2))
        with pytest.raises(ValueError, match="one entry per resample"):
            cs.BootstrapRegion(g, (g,) * 3, np.zeros(4), alpha=0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            cs.BootstrapRegion(g, (g,) * 3, np.array([0.1, -0.1, 0.2]), alpha=0.1)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 0.0, -0.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        g = random_preshape(5, np.random.default_rng(3))
        dist = np.random.default_rng(4).uniform(0.0, 1.0, size=60)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            cs.BootstrapRegion(g, (g,) * 60, dist, alpha=alpha)

    def test_empty_resample_set_rejected(self):
        g = random_preshape(5, np.random.default_rng(5))
        with pytest.raises(ValueError, match="need at least one resample"):
            cs.BootstrapRegion(g, (), np.zeros(0), alpha=0.05)

    def test_alpha_just_below_one_takes_the_smallest_distance(self):
        # ceil((1 - alpha) B) is 1 here, not 0: index 0 would wrap to the largest
        g = random_preshape(5, np.random.default_rng(6))
        dist = np.random.default_rng(7).uniform(0.0, 1.0, size=60)
        region = cs.BootstrapRegion(g, (g,) * 60, dist, alpha=1.0 - 1e-12)
        assert region.radius == dist.min()

    @pytest.mark.usefixtures("public_constructors_agree")
    def test_radius_is_380th_of_400_distances(self):
        sample = model_sample(15, seed=7)
        region = cs.bootstrap_region(sample, B=400, alpha=0.05, seed=1)
        assert region.radius == float(np.sort(region.distances)[379])
        assert len(region.boot_means) == 400
        assert int(region.included.sum()) >= 380

    def test_quantile_index_fp_robust(self):
        # 0.9 * 100 must give the 90th order statistic, not the 91st
        sample = model_sample(10, seed=8)
        region = cs.bootstrap_region(sample, B=100, alpha=0.1, seed=2)
        assert region.radius == float(np.sort(region.distances)[89])

    def test_identical_sample_zero_radius(self):
        g = random_preshape(6, np.random.default_rng(9))
        region = cs.bootstrap_region([g] * 8, B=60, alpha=0.05, seed=3)
        assert region.radius < 1e-10
        assert region.included.all()

    def test_sample_mean_inside_region(self):
        sample = model_sample(12, seed=10)
        region = cs.bootstrap_region(sample, B=80, alpha=0.05, seed=4)
        assert cs.chord_distance(region.sample_mean, region.sample_mean) <= region.radius

    def test_deterministic_given_seed(self):
        sample = model_sample(12, seed=11)
        a = cs.bootstrap_region(sample, B=60, alpha=0.05, seed=5)
        b = cs.bootstrap_region(sample, B=60, alpha=0.05, seed=5)
        assert np.array_equal(a.distances, b.distances)
        assert a.radius == b.radius

    def test_phase_invariance_of_distances(self):
        sample = model_sample(10, seed=13)
        base = cs.bootstrap_region(sample, B=60, alpha=0.05, seed=7)
        rng = np.random.default_rng(14)
        rotated = [cs.Preshape(s.coords * np.exp(1j * rng.uniform(0, 2 * np.pi))) for s in sample]
        moved = cs.bootstrap_region(rotated, B=60, alpha=0.05, seed=7)
        assert np.max(np.abs(base.distances - moved.distances)) < 1e-12

    def test_radius_shrinks_with_more_information(self):
        # nested samples from one model: the larger sample gives a tighter region
        small_radii, large_radii = [], []
        for seed in range(20):
            big = model_sample(60, seed=200 + seed)
            small = big[:15]
            small_radii.append(cs.bootstrap_region(small, B=60, alpha=0.05, seed=seed).radius)
            large_radii.append(cs.bootstrap_region(big, B=60, alpha=0.05, seed=seed).radius)
        assert np.median(large_radii) < np.median(small_radii)

    def test_preconditions(self):
        sample = model_sample(10, seed=15)
        with pytest.raises(ValueError):
            cs.bootstrap_region(sample, B=49, alpha=0.05, seed=0)
        with pytest.raises(ValueError):
            cs.bootstrap_region(sample[:1], B=60, alpha=0.05, seed=0)
        with pytest.raises(ValueError):
            cs.bootstrap_region(sample, B=60, alpha=0.0, seed=0)


def dense_region(sample, B, seed):
    """Resample means and distances of the explicit k x k path, one oracle resample per index."""
    mean, _ = dense_extrinsic_mean(sample)
    boot = [dense_resample_mean(sample, _substream(seed, i)) for i in range(B)]
    return boot, np.array([cs.chord_distance(b, mean) for b in boot])


def assert_matches_dense(region, sample, seed, count=None):
    boot, dist = dense_region(sample, count or len(region.boot_means), seed)
    for boot_mean, dense_mean in zip(region.boot_means, boot):
        assert cs.chord_distance(boot_mean, dense_mean) < 1e-12
    assert np.max(np.abs(region.distances[: len(dist)] - dist)) < 1e-12


class RecordingRng:
    """Generator proxy that logs every index draw."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        self.log.append(tuple(out))
        return out


class TestSpanPath:
    """Bootstrap regions of n < k samples agree with the explicit k x k path."""

    @pytest.mark.usefixtures("public_constructors_agree")
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 12),
        k=st.integers(3, 30),
        tau=st.floats(0.02, 0.5),
        seed=st.integers(0, 2**32 - 1),
        identical=st.booleans(),
    )
    def test_matches_dense_path(self, n, k, tau, seed, identical):
        if identical:
            sample = [random_preshape(k, np.random.default_rng(seed))] * n
        else:
            sample = model_sample(n, seed=seed, k=k, tau=tau)
        region = cs.bootstrap_region(sample, B=50, alpha=0.05, seed=seed)
        assert_matches_dense(region, sample, seed)

    def test_large_k(self):
        sample = model_sample(8, seed=20, k=600)
        region = cs.bootstrap_region(sample, B=50, alpha=0.05, seed=21)
        assert_matches_dense(region, sample, seed=21, count=3)

    def test_union_of_times_sample(self):
        curves = [
            cs.canonicalize(wobbly_contour(200, amp3=0.2 + 0.02 * i, phase=0.1 * i))
            for i in range(5)
        ]
        times = cs.build_correspondence(len(curves), "union-of-times", 25, np.random.default_rng(22))
        assert times.k > 100
        sample = [cs.preshape(cs.evaluate(c, times)) for c in curves]
        region = cs.bootstrap_region(sample, B=50, alpha=0.05, seed=23)
        assert_matches_dense(region, sample, seed=23)

    @pytest.mark.usefixtures("public_constructors_agree")
    def test_focal_retries_draw_the_same_indices(self, monkeypatch):
        # a resample drawing the orthogonal shape exactly twice is focal
        base = random_preshape(8, np.random.default_rng(24))
        sample = [base] * 3 + [cs.Preshape(centered_basis(base.coords)[:, 0])]
        span_draws = {}

        def recording_substream(seed, i):
            return RecordingRng(_substream(seed, i), span_draws.setdefault(i, []))

        monkeypatch.setattr(bootstrap_module, "_substream", recording_substream)
        region = cs.bootstrap_region(sample, B=50, alpha=0.05, seed=25)
        monkeypatch.undo()
        for i, boot_mean in enumerate(region.boot_means):
            dense_draws = []
            dense_mean = dense_resample_mean(sample, RecordingRng(_substream(25, i), dense_draws))
            assert span_draws[i] == dense_draws
            assert cs.chord_distance(boot_mean, dense_mean) < 1e-12
        assert max(len(draws) for draws in span_draws.values()) > 1

    @pytest.mark.parametrize("n, k, dim", [(8, 40, 9), (8, 9, 9), (8, 6, 6)])
    def test_resamples_run_in_span_coordinates(self, monkeypatch, n, k, dim):
        # a resample costs an SVD of (n + 1) x n, not k x n, once n + 1 < k
        sample = model_sample(n, seed=27, k=k)
        dims = []

        def recording_mean(resample):
            dims.append(resample[0].dimension)
            return cs.extrinsic_mean(resample)

        monkeypatch.setattr(bootstrap_module, "extrinsic_mean", recording_mean)
        cs.bootstrap_region(sample, B=50, alpha=0.05, seed=28)
        assert dims[0] == k and set(dims[1:]) == {dim}


class TestAlignRotation:
    def test_rotated_copy_snaps_back(self):
        g = random_preshape(7, np.random.default_rng(16))
        rotated = cs.Preshape(g.coords * np.exp(1.3j))
        aligned = cs.align_rotation(rotated, g)
        assert np.max(np.abs(aligned.coords - g.coords)) < 1e-12

    def test_already_aligned_unchanged(self):
        g = random_preshape(7, np.random.default_rng(17))
        h = random_preshape(7, np.random.default_rng(18))
        aligned_once = cs.align_rotation(h, g)
        aligned_twice = cs.align_rotation(aligned_once, g)
        assert np.max(np.abs(aligned_twice.coords - aligned_once.coords)) < 1e-14
        assert np.vdot(g.coords, aligned_once.coords).real >= 0
        assert abs(np.vdot(g.coords, aligned_once.coords).imag) < 1e-14

    def test_optimal_over_phase_grid(self):
        rng = np.random.default_rng(19)
        g, h = random_preshape(6, rng), random_preshape(6, rng)
        aligned = cs.align_rotation(h, g)
        achieved = np.vdot(g.coords, aligned.coords).real
        for theta in np.linspace(0, 2 * math.pi, 360, endpoint=False):
            other = np.vdot(g.coords, h.coords * np.exp(1j * theta)).real
            assert achieved >= other - 1e-12

    def test_frozen_and_unaliased(self):
        rng = np.random.default_rng(20)
        g, h = random_preshape(6, rng), random_preshape(6, rng)
        assert_frozen_and_unaliased(cs.align_rotation(h, g), h.coords, g.coords)

    def test_orthogonal_shapes_return_the_shape_itself(self):
        # <shape, reference> is exactly 0: every rotation is as good as none
        a = cs.Preshape(np.array([1, -1, 0, 0]) / math.sqrt(2))
        b = cs.Preshape(np.array([0, 0, 1j, -1j]) / math.sqrt(2))
        assert np.vdot(b.coords, a.coords) == 0
        assert cs.align_rotation(b, a) is b

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError, match=r"^dimension mismatch: 7 vs 6$"):
            cs.align_rotation(random_preshape(7, rng), random_preshape(6, rng))
