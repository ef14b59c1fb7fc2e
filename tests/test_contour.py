import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contourstat as cs
from contourstat import bootstrap, contour, shape_space
from contourstat.contour import _cum_lengths, _interpolate, _require_polygons, _signed_area
from support import (  # noqa: F401 (public_constructors_agree is a fixture)
    assert_frozen_and_unaliased,
    center_of_mass,
    interpolate_oracle,
    is_simple,
    max_edge_length,
    polygon_length,
    public_constructors_agree,
    wobbly_contour,
    wobbly_points,
)

SQUARE = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])  # ccw, centered
UNIT_SQUARE = np.array([0 + 0j, 1 + 0j, 1 + 1j, 0 + 1j])  # ccw


def union_of(monkeypatch, draws):
    """The union-of-times correspondence of len(draws) curves whose draws are ``draws``, in order."""
    given = iter(draws)
    monkeypatch.setattr(contour, "select_stopping_times", lambda k, rng: next(given))
    curves = [cs.canonicalize(cs.Contour(UNIT_SQUARE))] * len(draws)
    return cs.build_correspondence(curves, "union-of-times", 3, np.random.default_rng(0))


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

    @pytest.mark.parametrize(
        "points, error, message",
        [
            (np.zeros((2, 3)), ValueError, r"expected a 1-D point sequence, got shape \(2, 3\)"),
            ([], cs.DegenerateContourError, "contour needs >= 3 points, got 0"),
        ],
        ids=["2-D", "empty"],
    )
    def test_rejects_what_is_not_a_point_list(self, points, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            cs.Contour(points)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf), complex(np.nan, 0.0)])
    def test_rejects_a_coordinate_that_is_not_finite(self, bad):
        pts = SQUARE.astype(complex)
        pts[2] = bad
        with pytest.raises(cs.DegenerateContourError, match="not finite"):
            cs.Contour(pts)

    @pytest.mark.parametrize("scale", [1e308, 5e307])
    def test_rejects_a_perimeter_that_overflows(self, scale):
        with pytest.raises(cs.DegenerateContourError, match="perimeter overflows"):
            cs.Contour(wobbly_points(40) * scale)

    def test_accepts_a_large_contour_whose_perimeter_is_finite(self):
        assert len(cs.Contour(wobbly_points(40) * 1e307)) == 40


class TestParamCurveType:
    def test_takes_the_vertices_alone(self):
        assert list(inspect.signature(cs.ParamCurve).parameters) == ["vertices"]
        assert not hasattr(cs.ParamCurve, "from_vertices")

    def test_derived_lengths_equal_the_running_edge_sum(self):
        assert cs.ParamCurve(UNIT_SQUARE).cum_lengths.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        pts = cs.canonicalize(wobbly_contour(57)).vertices
        curve = cs.ParamCurve(pts)
        cum = np.concatenate(([0.0], np.cumsum(np.abs(np.roll(pts, -1) - pts))))
        assert np.array_equal(curve.cum_lengths, cum)
        assert not curve.cum_lengths.flags.writeable
        assert curve.total_length == cum[-1]
        assert type(curve.total_length) is float

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError, match="counterclockwise"):
            cs.ParamCurve(UNIT_SQUARE[::-1])

    def test_zero_edge_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            cs.ParamCurve(np.array([0, 1, 1, 1j]))

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([0, 1, np.nan], "contour has a coordinate that is not finite"),
            ([0, 1, 1j, np.inf], "contour has a coordinate that is not finite"),
            ([0, 1], "contour has fewer than 3 distinct points"),
        ],
        ids=["nan", "inf", "two-vertices"],
    )
    def test_rejects_what_contour_rejects(self, vertices, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cs.DegenerateContourError, match=f"^{message}$"):
                cs.ParamCurve(np.array(vertices))


class TestFarFromOrigin:
    """A translated contour keeps its orientation: the shoelace sum is taken about a vertex."""

    @pytest.mark.parametrize("scale", [1e8, 1e9])
    def test_signed_area_survives_translation(self, scale):
        base = wobbly_points(200)
        for phi in np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False):
            moved = base + scale * np.exp(1j * phi)
            assert _signed_area(moved) == pytest.approx(_signed_area(base), rel=1e-5)
            assert _signed_area(moved[::-1]) == pytest.approx(-_signed_area(base), rel=1e-5)

    @pytest.mark.parametrize("scale", [1e8, 1e9])
    def test_canonical_start_and_direction_survive_translation(self, scale):
        base = wobbly_points(200)
        ref = cs.canonicalize(cs.Contour(base)).vertices
        for phi in np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False):
            offset = scale * np.exp(1j * phi)
            for pts in (base + offset, (base + offset)[::-1]):
                got = cs.canonicalize(cs.Contour(pts)).vertices - offset
                assert abs(got[0] - ref[0]) < 1e-5
                assert abs(got[1] - ref[1]) < 1e-5


def sliver_points(rng):
    """Out along a line through 3-6 points, then back through the inner ones.

    The vertices are displaced by 1e-17 going out and by 1e-16 coming back,
    so the signed area is roundoff of either sign.
    """
    m = int(rng.integers(3, 7))
    direction = np.exp(2j * np.pi * rng.uniform())
    line = complex(*rng.standard_normal(2)) + direction * np.sort(rng.uniform(0.0, 3.0, m))

    def noise(size, scale):
        return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    return np.concatenate((line + noise(m, 1e-17), line[-2:0:-1] + noise(m - 2, 1e-16)))


class TestSlivers:
    """A sliver's area is roundoff, yet every start vertex and direction agree on it exactly."""

    def test_area_ignores_the_start_vertex_and_negates_on_reversal(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            pts = sliver_points(rng)
            area = _signed_area(pts)
            assert all(_signed_area(np.roll(pts, j)) == area for j in range(len(pts)))
            assert _signed_area(pts[::-1]) == -area

    @pytest.mark.usefixtures("public_constructors_agree")
    def test_canonicalize_raises_only_contourstat_errors(self):
        rng = np.random.default_rng(13)
        outcomes = {"canonical": 0, "rejected": 0}
        for _ in range(2000):
            try:
                curve = cs.canonicalize(cs.Contour(sliver_points(rng)))
            except cs.ContourStatError:
                outcomes["rejected"] += 1
            else:
                assert _signed_area(curve.vertices) > 0
                outcomes["canonical"] += 1
        assert min(outcomes.values()) > 0


def start_and_step(points, curve):
    """Index in points of the curve's start vertex, and +1 or -1 for its direction through them."""
    i = int(np.flatnonzero(points == curve.vertices[0])[0])
    return i, 1 if curve.vertices[1] == points[(i + 1) % len(points)] else -1


class TestAnyScale:
    """Canonicalization and preshapes are exact under scale: no product over- or underflows."""

    @pytest.mark.usefixtures("public_constructors_agree")
    @settings(max_examples=100, deadline=None)
    @given(exponent=st.integers(-300, 300), phase=st.floats(0.0, 6.3), reverse=st.booleans())
    def test_start_direction_and_preshape_match_the_unit_contour(self, exponent, phase, reverse):
        base = wobbly_points(200, phase=phase)[:: -1 if reverse else 1]
        scaled = base * 10.0**exponent
        ref, got = cs.canonicalize(cs.Contour(base)), cs.canonicalize(cs.Contour(scaled))
        assert start_and_step(scaled, got) == start_and_step(base, ref)
        times = cs.select_stopping_times(30, np.random.default_rng(exponent + 300))
        want = cs.preshape(cs.evaluate(ref, times)).coords
        assert np.max(np.abs(cs.preshape(cs.evaluate(got, times)).coords - want)) < 1e-12


class TestCenterOfMass:
    def test_square_centered_at_origin(self):
        curve = cs.ParamCurve(SQUARE)
        assert abs(center_of_mass(curve)) < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 12, 100])
    def test_regular_ngon_centered(self, n):
        curve = cs.ParamCurve(ngon(n))
        assert abs(center_of_mass(curve)) < 1e-12

    def test_translation_equivariant(self):
        shifted = cs.ParamCurve(UNIT_SQUARE + (3 + 4j))
        base = cs.ParamCurve(UNIT_SQUARE)
        assert abs(center_of_mass(shifted) - center_of_mass(base) - (3 + 4j)) < 1e-12


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

    def test_edge_lost_to_the_running_length_rejected(self):
        # the 1e-20 edge adds nothing to the arclength 1 before it
        stalled = cs.Contour([0, 1, 1 + 1e-20j, 0.5 + 1j])
        message = "^contour arclength is not strictly increasing$"
        with pytest.raises(cs.DegenerateContourError, match=message):
            cs.canonicalize(stalled)


class TestPolygonLength:
    def test_unit_square(self):
        assert polygon_length(cs.ParamCurve(UNIT_SQUARE)) == pytest.approx(4.0)

    def test_regular_1000gon_close_to_circle(self):
        # closed form for the inscribed polygon: 2 n sin(pi / n)
        curve = cs.ParamCurve(ngon(1000))
        expected = 2 * 1000 * np.sin(np.pi / 1000)
        assert polygon_length(curve) == pytest.approx(expected, rel=1e-12)
        assert polygon_length(curve) == pytest.approx(2 * np.pi, rel=1e-4)

    def test_similarity_behavior(self):
        base = cs.canonicalize(wobbly_contour(200))
        L = polygon_length(base)
        rot = cs.canonicalize(cs.Contour(wobbly_points(200) * np.exp(0.7j) + (2 - 1j)))
        assert polygon_length(rot) == pytest.approx(L, rel=1e-12)
        scaled = cs.canonicalize(cs.Contour(wobbly_points(200) * 3.5))
        assert polygon_length(scaled) == pytest.approx(3.5 * L, rel=1e-12)


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


@pytest.mark.usefixtures("public_constructors_agree")
class TestEvaluate:
    def test_vertex_times_identity_exact(self):
        curve = cs.canonicalize(wobbly_contour(57))
        fracs = cs.StoppingTimes(curve.cum_lengths[:-1] / curve.total_length)
        out = cs.evaluate(curve, fracs)
        assert np.array_equal(out.points, curve.vertices)

    def test_unit_square_midpoint_of_first_edge(self):
        curve = cs.ParamCurve(UNIT_SQUARE)
        out = cs.evaluate(curve, cs.StoppingTimes([0.0, 0.125, 0.5]))
        assert out.points[1] == pytest.approx(0.5 + 0j, abs=1e-15)

    def test_fraction_at_vertex_returns_vertex(self):
        curve = cs.ParamCurve(UNIT_SQUARE)
        # 0.25 is exactly the fraction of vertex 1
        out = cs.evaluate(curve, cs.StoppingTimes([0.0, 0.25, 0.6]))
        assert out.points[1] == curve.vertices[1]

    def test_times_closer_than_the_coordinates_resolve_rejected(self):
        # a square of side 8 at 2^50, where coordinates are 0.25 apart: 300
        # times on its perimeter of 32 put two k-gon vertices on one point
        far = cs.canonicalize(cs.Contour(8 * UNIT_SQUARE + 2.0**50 * (1 + 1j)))
        times = cs.select_stopping_times(300, np.random.default_rng(0))
        message = "^its 300-gon has two equal consecutive points$"
        with pytest.raises(cs.DegenerateContourError, match=message):
            cs.evaluate(far, times)
        assert len(cs.evaluate(far, cs.select_stopping_times(4, np.random.default_rng(0)))) == 4

    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.5]], ids=["k=1", "k=2"])
    def test_fewer_than_three_times_rejected(self, times):
        with pytest.raises(cs.DegenerateContourError, match=f"^its {len(times)}-gon has "):
            cs.evaluate(cs.ParamCurve(UNIT_SQUARE), cs.StoppingTimes(times))


def polygon_rows(rng, rows, m, flat):
    """``rows`` polygons of m vertices: random ones, or flat (zero area) out-and-back paths.

    Every other row is the first one turned by a quarter and scaled by a power
    of two, which keeps its arclength fractions bit for bit, so fractions
    taken from the first row hit vertices of those rows too.
    """
    if flat:
        out = np.cumsum(rng.uniform(0.1, 1.0, (rows, m // 2 + 1)), axis=1)
        back = out[:, -2::-1][:, : m - m // 2 - 1] - rng.uniform(0.0, 0.05, (rows, 1))
        verts = np.concatenate((out, back), axis=1).astype(np.complex128)
    else:
        verts = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    verts[1::2] = verts[0] * 1j * 2.0 ** rng.integers(-40, 40, (len(verts[1::2]), 1))
    return verts


def fraction_rows(rng, rows, width, vertex_fracs):
    """Sorted fractions in [0, 1), 0 first, some of them vertex fractions exactly."""
    out = []
    for _ in range(rows):
        s = np.concatenate(([0.0], rng.uniform(0.0, 1.0, width), rng.choice(vertex_fracs, width)))
        out.append(np.unique(s)[:width])
    return np.array(out)


class TestInterpolateOracle:
    """``_interpolate`` gives the bits of the frozen row-by-row ``support.interpolate_oracle``."""

    @pytest.mark.usefixtures("public_constructors_agree")
    @settings(max_examples=200, deadline=None)
    @given(
        layout=st.sampled_from(["one-cum", "one-s", "rows", "single"]),
        rows=st.integers(2, 7),
        m=st.integers(3, 30),
        width=st.integers(1, 40),
        flat=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits(self, layout, rows, m, width, flat, seed):
        rng = np.random.default_rng(seed)
        cum_rows = 1 if layout in ("one-cum", "single") else rows
        s_rows = 1 if layout in ("one-s", "single") else rows
        verts = polygon_rows(rng, cum_rows, m, flat)
        cum = _cum_lengths(verts)
        if flat:
            assert all(_signed_area(v) == 0.0 for v in verts)
        s = fraction_rows(rng, s_rows, width, (cum[0] / cum[0, -1])[:-1])
        got = _interpolate(cum, verts, s)
        want = interpolate_oracle(cum, verts, s)
        assert got.shape == want.shape == (max(cum_rows, s_rows), s.shape[1])
        assert got.tobytes() == want.tobytes()

    def test_exact_hits_return_the_vertices(self):
        rng = np.random.default_rng(5)
        verts = polygon_rows(rng, 4, 9, flat=False)
        cum = _cum_lengths(verts)
        fracs = (cum[0] / cum[0, -1])[None, :-1]
        got = _interpolate(cum, verts, fracs)
        assert got[1::2].tobytes() == verts[1::2].tobytes()
        assert got.tobytes() == interpolate_oracle(cum, verts, fracs).tobytes()


class TestMaxEdgeLength:
    def test_unit_square(self):
        assert max_edge_length(cs.Contour(UNIT_SQUARE)) == pytest.approx(1.0)

    def test_regular_ngon_edges_equal(self):
        c = cs.Contour(ngon(17))
        edge = abs(ngon(17)[1] - ngon(17)[0])
        assert max_edge_length(c) == pytest.approx(edge, rel=1e-12)

    def test_median_max_edge_decreases_in_k(self):
        curve = cs.canonicalize(wobbly_contour(800))
        medians = []
        for k in (50, 150, 450):
            vals = [
                max_edge_length(cs.evaluate(curve, cs.select_stopping_times(k, np.random.default_rng(s))))
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
        circle = cs.ParamCurve(ngon(1500))
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

    def test_union_of_identical_sets_is_that_set(self, monkeypatch):
        t = cs.select_stopping_times(10, np.random.default_rng(1))
        u = union_of(monkeypatch, [t, t])
        assert np.array_equal(u.times, t.times)

    def test_union_merges_and_sorts(self, monkeypatch):
        a = cs.StoppingTimes([0.0, 0.5])
        b = cs.StoppingTimes([0.0, 0.25])
        u = union_of(monkeypatch, [a, b])
        assert np.array_equal(u.times, [0.0, 0.25, 0.5])

    def test_union_strategy_covers_every_curve_draw(self, monkeypatch):
        draws = []

        def recorded(k, rng):
            draws.append(select(k, rng))
            return draws[-1]

        select = contour.select_stopping_times
        monkeypatch.setattr(contour, "select_stopping_times", recorded)
        curves = [cs.canonicalize(wobbly_contour(150)) for _ in range(3)]
        times = cs.build_correspondence(curves, "union-of-times", 8, np.random.default_rng(5))
        assert times.k <= 3 * 8
        assert times.k >= 8
        assert times.times[0] == 0.0
        # every draw, sorted, each time once, in arrays of its own
        assert len(draws) == 3 and all(np.isin(d.times, times.times).all() for d in draws)
        assert np.array_equal(times.times, np.unique(np.concatenate([d.times for d in draws])))
        assert np.all(np.diff(times.times) > 0)
        assert_frozen_and_unaliased(times, *(d.times for d in draws))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            cs.build_correspondence([], "shared-times", 10, np.random.default_rng(0))

    def test_unknown_strategy_rejected(self):
        curves = [cs.canonicalize(wobbly_contour(100))]
        with pytest.raises(ValueError):
            cs.build_correspondence(curves, "sometimes", 10, np.random.default_rng(0))


class TestDerivedValuesAreFrozen:
    """A value the library derives unchecked has read-only arrays of its own."""

    def test_canonicalize(self):
        pts = wobbly_points(40)[::-1].copy()  # clockwise: canonicalize reverses it
        source = cs.Contour(pts)
        curve = cs.canonicalize(source)
        want = curve.vertices.copy()
        pts[:] = 0
        assert_frozen_and_unaliased(curve, pts, source.points)
        assert np.array_equal(curve.vertices, want)
        again = cs.canonicalize(curve)  # already canonical: start 0, no reversal
        assert_frozen_and_unaliased(again, curve.vertices, curve.cum_lengths)

    def test_select_stopping_times(self):
        assert_frozen_and_unaliased(cs.select_stopping_times(9, np.random.default_rng(3)))

    def test_evaluate(self):
        curve = cs.canonicalize(wobbly_contour(30))
        times = cs.StoppingTimes(curve.cum_lengths[:-1] / curve.total_length)  # the vertices
        kgon = cs.evaluate(curve, times)
        assert np.array_equal(kgon.points, curve.vertices)
        assert_frozen_and_unaliased(kgon, curve.vertices, curve.cum_lengths, times.times)

    def test_union_of_times(self, monkeypatch):
        a = cs.select_stopping_times(5, np.random.default_rng(4))
        b = cs.StoppingTimes([0.0, 0.5])
        assert_frozen_and_unaliased(union_of(monkeypatch, [a, b]), a.times, b.times)
        assert_frozen_and_unaliased(union_of(monkeypatch, [a]), a.times)


def checked_values():
    """Each public value type that takes arrays, with arrays a caller holds, in the dtype kept."""
    g = cs.preshape(wobbly_points(6))
    return {
        "Contour": (cs.Contour, {"points": wobbly_points(20)}),
        "ParamCurve": (cs.ParamCurve, {"vertices": ngon(7)}),
        "StoppingTimes": (cs.StoppingTimes, {"times": np.array([0.0, 0.25, 0.5])}),
        "Preshape": (cs.Preshape, {"coords": np.array(g.coords)}),
        "EigenSystem": (
            cs.EigenSystem,
            {"eigenvalues": np.array([0.7, 0.3]), "eigenvectors": np.eye(4, 2, dtype=complex)},
        ),
        "BootstrapRegion": (
            cs.BootstrapRegion,
            {
                "sample_mean": g,
                "boot_means": (g,) * 50,
                "distances": np.linspace(0.0, 1.0, 50),
                "alpha": 0.1,
            },
        ),
    }


class TestCheckedValuesCopy:
    """A value built by its public constructor has read-only copies of its caller's arrays."""

    @pytest.mark.parametrize("name", list(checked_values()))
    def test_frozen_unaliased_and_unchanged_by_later_writes(self, name):
        value_type, fields = checked_values()[name]
        given = [val for val in fields.values() if isinstance(val, np.ndarray)]
        value = value_type(**fields)
        assert all(arr.flags.writeable for arr in given)
        assert_frozen_and_unaliased(value, *given)
        held = {key: np.array(val) for key, val in vars(value).items() if type(val) is np.ndarray}
        for arr in given:
            arr[...] = 0
        for key, want in held.items():
            assert np.array_equal(getattr(value, key), want), key


class TestPublicConstructorsAgree:
    """The fixture that checks the unchecked path fails where a public constructor disagrees."""

    def test_wraps_every_module_binding_the_private_constructor(self, request):
        unchecked = contour._fill
        request.getfixturevalue("public_constructors_agree")
        wrapped = {module._fill for module in (contour, shape_space, bootstrap)}
        assert len(wrapped) == 1 and unchecked not in wrapped

    def test_fails_on_a_value_the_public_constructor_rejects(self, public_constructors_agree):
        cw = UNIT_SQUARE[::-1]
        cum = _cum_lengths(cw)
        with pytest.raises(AssertionError, match="public ParamCurve rejects"):
            contour._fill(cs.ParamCurve, vertices=cw, cum_lengths=cum, total_length=float(cum[-1]))
        with pytest.raises(AssertionError, match="public Preshape rejects"):
            shape_space._fill(cs.Preshape, coords=np.array([1.0, 0.0, 0.0]))

    def test_fails_on_a_field_the_public_constructor_derives_otherwise(
        self, public_constructors_agree
    ):
        doubled = 2.0 * _cum_lengths(UNIT_SQUARE)
        with pytest.raises(AssertionError, match="ParamCurve.cum_lengths built unchecked differs"):
            contour._fill(cs.ParamCurve, vertices=UNIT_SQUARE, cum_lengths=doubled, total_length=4.0)

    def test_passes_what_the_public_constructor_accepts(self, public_constructors_agree):
        times = contour._fill(cs.StoppingTimes, times=np.array([0.0, 0.5]))
        assert times.times.tolist() == [0.0, 0.5]


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

    @pytest.mark.parametrize("times", [np.zeros((1, 3)), []], ids=["2-D", "empty"])
    def test_nonempty_1d(self, times):
        with pytest.raises(ValueError, match="^times must be a nonempty 1-D sequence$"):
            cs.StoppingTimes(times)
