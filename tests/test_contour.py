import numpy as np
import pytest

import contourstat as cs
from contourstat.contour import _require_polygons
from support import is_simple, wobbly_contour, wobbly_points

SQUARE = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])  # ccw, centered
UNIT_SQUARE = np.array([0 + 0j, 1 + 0j, 1 + 1j, 0 + 1j])  # ccw


def ngon(n, radius=1.0):
    return radius * np.exp(2j * np.pi * np.arange(n) / n)


class TestContourType:
    def test_rejects_consecutive_duplicates(self):
        with pytest.raises(cs.DegenerateContourError):
            cs.Contour([0, 1, 1, 1j])

    def test_rejects_duplicate_closing_pair(self):
        with pytest.raises(cs.DegenerateContourError):
            cs.Contour([0, 1, 1j, 0])

    def test_rejects_fewer_than_three_distinct(self):
        with pytest.raises(cs.DegenerateContourError):
            cs.Contour([0, 1, 0, 1])

    def test_row_checks_match_unique_count(self):
        # polygons over 3 values: many repeats, alternations and valid ones
        rng = np.random.default_rng(4)
        for _ in range(2000):
            pts = rng.integers(0, 3, size=int(rng.integers(3, 9))) * (1 + 0.5j)
            if np.any(np.roll(pts, -1) == pts):
                expected = "two equal consecutive points"
            elif len(np.unique(pts)) < 3:
                expected = "fewer than 3 distinct points"
            else:
                expected = None
            # alone, and as the second row behind a valid polygon
            for rows in (pts[None], np.stack((ngon(len(pts)), pts))):
                if expected is None:
                    _require_polygons(rows)
                else:
                    with pytest.raises(cs.DegenerateContourError, match=expected):
                        _require_polygons(rows)

    def test_degenerate_three_gon_with_repeated_point_rejected(self):
        with pytest.raises(cs.DegenerateContourError):
            cs.Contour([1 + 0j, 2 + 0j, 2 + 0j])

    def test_is_simple(self):
        assert is_simple(cs.Contour(SQUARE))
        bowtie = np.array([0 + 0j, 1 + 1j, 1 + 0j, 0 + 1j])
        assert not is_simple(cs.Contour(bowtie))

    def test_points_immutable(self):
        c = cs.Contour(SQUARE)
        with pytest.raises(ValueError):
            c.points[0] = 0


class TestCenterOfMass:
    def test_square_centered_at_origin(self):
        curve = cs.ParamCurve.from_vertices(SQUARE)
        assert abs(cs.center_of_mass(curve)) < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 12, 100])
    def test_regular_ngon_centered(self, n):
        curve = cs.ParamCurve.from_vertices(ngon(n))
        assert abs(cs.center_of_mass(curve)) < 1e-12

    def test_translation_equivariant(self):
        shifted = cs.ParamCurve.from_vertices(UNIT_SQUARE + (3 + 4j))
        base = cs.ParamCurve.from_vertices(UNIT_SQUARE)
        assert abs(cs.center_of_mass(shifted) - cs.center_of_mass(base) - (3 + 4j)) < 1e-12


class TestCanonicalize:
    def test_clockwise_square_becomes_counterclockwise(self):
        cw = cs.Contour(SQUARE[::-1])
        curve = cs.canonicalize(cw)
        assert set(np.round(curve.vertices, 12)) == set(np.round(SQUARE, 12))
        nxt = np.roll(curve.vertices, -1)
        assert 0.5 * np.sum(np.imag(np.conj(curve.vertices) * nxt)) > 0

    def test_pushed_vertex_becomes_start(self):
        pts = wobbly_points(200, amp3=0.05, amp7=0.02).copy()
        pts[137] *= 1.5
        curve = cs.canonicalize(cs.Contour(pts))
        assert curve.vertices[0] == pts[137]

    def test_tie_break_smallest_ccw_angle(self):
        # all four square vertices tie for farthest; 45 degrees wins
        curve = cs.canonicalize(cs.Contour(SQUARE))
        assert curve.vertices[0] == 1 + 1j

    def test_idempotent_pointwise(self):
        first = cs.canonicalize(wobbly_contour(123))
        second = cs.canonicalize(first)
        assert np.array_equal(first.vertices, second.vertices)
        assert np.array_equal(first.cum_lengths, second.cum_lengths)
        assert first.total_length == second.total_length

    def test_zero_area_rejected(self):
        with pytest.raises(cs.DegenerateContourError):
            cs.canonicalize(cs.Contour([0 + 0j, 1 + 0j, 2 + 0j]))


class TestPolygonLength:
    def test_unit_square(self):
        assert cs.polygon_length(cs.ParamCurve.from_vertices(UNIT_SQUARE)) == pytest.approx(4.0)

    def test_regular_1000gon_close_to_circle(self):
        # closed form for the inscribed polygon: 2 n sin(pi / n)
        curve = cs.ParamCurve.from_vertices(ngon(1000))
        expected = 2 * 1000 * np.sin(np.pi / 1000)
        assert cs.polygon_length(curve) == pytest.approx(expected, rel=1e-12)
        assert cs.polygon_length(curve) == pytest.approx(2 * np.pi, rel=1e-4)

    def test_similarity_behavior(self):
        base = cs.canonicalize(wobbly_contour(200))
        L = cs.polygon_length(base)
        rot = cs.canonicalize(cs.Contour(wobbly_points(200) * np.exp(0.7j) + (2 - 1j)))
        assert cs.polygon_length(rot) == pytest.approx(L, rel=1e-12)
        scaled = cs.canonicalize(cs.Contour(wobbly_points(200) * 3.5))
        assert cs.polygon_length(scaled) == pytest.approx(3.5 * L, rel=1e-12)


class TestSelectStoppingTimes:
    def test_contract_k3(self):
        t = cs.select_stopping_times(3, np.random.default_rng(0))
        assert t.k == 3
        assert t.times[0] == 0.0
        assert np.all(np.diff(t.times) > 0)

    def test_deterministic_given_seed(self):
        a = cs.select_stopping_times(40, np.random.default_rng(7))
        b = cs.select_stopping_times(40, np.random.default_rng(7))
        assert np.array_equal(a.times, b.times)

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            cs.select_stopping_times(2, np.random.default_rng(0))

    def test_draws_uniform_ks(self):
        # Kolmogorov-Smirnov statistic of pooled draws against Uniform[0,1)
        pooled = np.concatenate(
            [cs.select_stopping_times(300, np.random.default_rng(s)).times for s in range(50)]
        )
        pooled.sort()
        n = len(pooled)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - pooled)), np.max(np.abs(pooled - (grid - 1 / n))))
        assert ks < 0.1

    def test_valid_for_every_seed(self):
        for seed in range(1000):
            t = cs.select_stopping_times(20, np.random.default_rng(seed))
            assert t.times[0] == 0.0
            assert np.all(np.diff(t.times) > 0)
            assert t.times[-1] < 1.0


class TestEvaluate:
    def test_vertex_times_identity_exact(self):
        curve = cs.canonicalize(wobbly_contour(57))
        fracs = cs.StoppingTimes(curve.cum_lengths[:-1] / curve.total_length)
        out = cs.evaluate(curve, fracs)
        assert np.array_equal(out.points, curve.vertices)

    def test_unit_square_midpoint_of_first_edge(self):
        curve = cs.ParamCurve.from_vertices(UNIT_SQUARE)
        out = cs.evaluate(curve, cs.StoppingTimes([0.0, 0.125, 0.5]))
        assert out.points[1] == pytest.approx(0.5 + 0j, abs=1e-15)

    def test_fraction_at_vertex_returns_vertex(self):
        curve = cs.ParamCurve.from_vertices(UNIT_SQUARE)
        # 0.25 is exactly the fraction of vertex 1
        out = cs.evaluate(curve, cs.StoppingTimes([0.0, 0.25, 0.6]))
        assert out.points[1] == curve.vertices[1]


class TestMaxEdgeLength:
    def test_unit_square(self):
        assert cs.max_edge_length(cs.Contour(UNIT_SQUARE)) == pytest.approx(1.0)

    def test_regular_ngon_edges_equal(self):
        c = cs.Contour(ngon(17))
        edge = abs(ngon(17)[1] - ngon(17)[0])
        assert cs.max_edge_length(c) == pytest.approx(edge, rel=1e-12)

    def test_median_max_edge_decreases_in_k(self):
        curve = cs.canonicalize(wobbly_contour(800))
        medians = []
        for k in (50, 150, 450):
            vals = [
                cs.max_edge_length(cs.evaluate(curve, cs.select_stopping_times(k, np.random.default_rng(s))))
                for s in range(50)
            ]
            medians.append(np.median(vals))
        assert medians[0] > medians[1] > medians[2]


class TestRelativeLengthError:
    def test_reference_itself_zero(self):
        curve = cs.canonicalize(wobbly_contour(300))
        kgon = cs.Contour(curve.vertices)
        assert cs.relative_length_error(curve.total_length, kgon) == 0.0

    def test_monotone_refinement(self):
        curve = cs.canonicalize(wobbly_contour(2000))
        def mean_err(k):
            return np.mean(
                [
                    cs.relative_length_error(
                        curve.total_length,
                        cs.evaluate(curve, cs.select_stopping_times(k, np.random.default_rng(s))),
                    )
                    for s in range(30)
                ]
            )
        e50, e800 = mean_err(50), mean_err(800)
        assert e50 > e800 >= 0.0

    def test_inscribed_convex_nonnegative(self):
        circle = cs.ParamCurve.from_vertices(ngon(1500))
        for seed in range(20):
            kgon = cs.evaluate(circle, cs.select_stopping_times(40, np.random.default_rng(seed)))
            assert cs.relative_length_error(circle.total_length, kgon) >= 0.0

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(ValueError):
            cs.relative_length_error(0.0, cs.Contour(UNIT_SQUARE))


class TestCorrespondence:
    def test_shared_times_same_fractions_for_all(self):
        curves = [cs.canonicalize(wobbly_contour(200)), cs.canonicalize(wobbly_contour(300, phase=0.5))]
        times = cs.build_correspondence(curves, "shared-times", 25, np.random.default_rng(3))
        gons = [cs.evaluate(c, times) for c in curves]
        # vertex j of each k-gon sits at the same arclength fraction of its own
        # curve, so index j corresponds across the sample
        assert len(gons[0]) == len(gons[1]) == 25
        for c, g in zip(curves, gons):
            assert g.points[0] == c.vertices[0]

    def test_union_with_per_curve_counts(self):
        curves = [cs.canonicalize(wobbly_contour(150)), cs.canonicalize(wobbly_contour(180, phase=1.0))]
        times = cs.build_correspondence(curves, "union-of-times", [6, 9], np.random.default_rng(8))
        assert 9 <= times.k <= 15

    def test_union_of_identical_sets_is_that_set(self):
        t = cs.select_stopping_times(10, np.random.default_rng(1))
        u = cs.union_of_times([t, t])
        assert np.array_equal(u.times, t.times)

    def test_union_merges_and_sorts(self):
        a = cs.StoppingTimes([0.0, 0.5])
        b = cs.StoppingTimes([0.0, 0.25])
        u = cs.union_of_times([a, b])
        assert np.array_equal(u.times, [0.0, 0.25, 0.5])

    def test_union_strategy_covers_every_curve_draw(self):
        curves = [cs.canonicalize(wobbly_contour(150)) for _ in range(3)]
        times = cs.build_correspondence(curves, "union-of-times", 8, np.random.default_rng(5))
        assert times.k <= 3 * 8
        assert times.k >= 8
        assert times.times[0] == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            cs.build_correspondence([], "shared-times", 10, np.random.default_rng(0))

    def test_unknown_strategy_rejected(self):
        curves = [cs.canonicalize(wobbly_contour(100))]
        with pytest.raises(ValueError):
            cs.build_correspondence(curves, "sometimes", 10, np.random.default_rng(0))


class TestStoppingTimesType:
    def test_first_time_must_be_zero(self):
        with pytest.raises(ValueError):
            cs.StoppingTimes([0.1, 0.2, 0.3])

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            cs.StoppingTimes([0.0, 0.2, 0.2])

    def test_below_one(self):
        with pytest.raises(ValueError):
            cs.StoppingTimes([0.0, 0.5, 1.0])
