"""Result files written as they are formatted: the same bytes as the whole-text references.

``svg_render``, ``write_contour`` and the CSV writers of ``contourstat
bootstrap`` and ``contourstat approx`` write their files piece by piece; the
references in ``support`` build the whole text first.  The traced peaks of
whole ``mean`` and ``plot`` commands are pinned here too.  This module needs
numpy alone.
"""

import tracemalloc
from xml.etree import ElementTree

import numpy as np
import pytest

import contourstat as cs
from contourstat import cli
from support import (
    approx_report_csv,
    bootstrap_summary_csv,
    contour_csv,
    random_preshape,
    svg_document,
    wobbly_points,
)

SPECIAL = np.array([0.0, -0.0, 5e-324, -3e-310, 2.2250738585072014e-308, 1e300, -1e300])


def raw_points(rng, m, nan):
    """m points with the special values, and NaN if asked, scattered over both coordinates."""
    x = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8)
    y = rng.standard_normal(m)
    special = np.append(SPECIAL, np.nan) if nan else SPECIAL
    for coord in (x, y):
        at = rng.choice(m, size=min(m, len(special)), replace=False)
        coord[at] = rng.permutation(special)[: len(at)]
    return x + 1j * y


def random_overlay(rng, nan):
    """Preshapes, complex arrays, a float array, a list and one empty array, with their styles."""
    count = rng.integers(1, 4, size=2)
    shapes = [random_preshape(int(rng.integers(3, 60)), rng) for _ in range(count[0])]
    shapes += [raw_points(rng, int(rng.integers(1, 40)), nan) for _ in range(count[1])]
    shapes.append(rng.standard_normal(7))
    shapes.append(list(raw_points(rng, 5, nan=False)))
    shapes.insert(int(rng.integers(0, len(shapes) + 1)), np.zeros(0, dtype=complex))
    odd = cs.PathStyle("#é0ff00", width=1e-320, opacity=-0.0)
    styles = [cli.MEAN_STYLE, cli.BOOT_STYLE, cli.PLAIN_STYLE, odd]
    return [(s, styles[int(rng.integers(len(styles)))]) for s in shapes]


class TestSvgRender:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_bytes_as_the_whole_document(self, tmp_path, seed):
        overlay = random_overlay(np.random.default_rng(seed), nan=seed % 3 == 0)
        f = tmp_path / "o.svg"
        cs.svg_render(overlay, f)
        assert f.read_bytes() == svg_document(overlay)

    @pytest.mark.parametrize(
        "points",
        [
            [0j, 1 + 0j, 1j],  # one tiny figure
            [np.nan + 1j, 2 + 3j, -0.0 - 0.0j],  # a NaN extreme
            [1e300 + 0j, -1e300 + 1e300j, 0j],  # extremes near overflow
            [5e-324 + 0j, -5e-324j, 0j],  # subnormals only: the 1e-30 margin floor
        ],
    )
    def test_same_bytes_at_the_extremes(self, tmp_path, points):
        overlay = [(np.array(points), cs.PathStyle()), (np.zeros(0, complex), cs.PathStyle())]
        f = tmp_path / "x.svg"
        cs.svg_render(overlay, f)
        assert f.read_bytes() == svg_document(overlay)

    @pytest.mark.parametrize(
        "overlay",
        [
            [],
            [(np.zeros(0, complex), cs.PathStyle())],
            [(np.ones(4, complex), cs.PathStyle()), (["a", "b", "c"], cs.PathStyle())],
            [(np.ones(4, complex), cs.PathStyle()), (object(), cs.PathStyle())],
            [(np.ones(4, complex), cs.PathStyle()), (np.ones(3, complex), cs.PathStyle(width="x"))],
            [(np.ones(4, complex), cs.PathStyle(opacity="0.5"))],
            [(np.ones(4, complex), cs.PathStyle(stroke="\udc80"))],
        ],
        ids=["none", "all-empty", "not-complex", "no-array", "bad-width", "bad-opacity", "surrogate"],
    )
    def test_raises_as_the_whole_document_does_before_the_file_exists(self, tmp_path, overlay):
        with pytest.raises(Exception) as want:
            svg_document(overlay)
        f = tmp_path / "x.svg"
        with pytest.raises(type(want.value)):
            cs.svg_render(overlay, f)
        assert not f.exists()

    @pytest.mark.parametrize(
        "stroke",
        ['a&b"', '#fff" onload="x', "<&>\"'", "&amp;"],
    )
    def test_same_bytes_with_attribute_characters(self, tmp_path, stroke):
        overlay = [(np.array([0j, 1 + 0j, 1j]), cs.PathStyle(stroke=stroke))]
        f = tmp_path / "s.svg"
        cs.svg_render(overlay, f)
        assert f.read_bytes() == svg_document(overlay)

    @pytest.mark.parametrize("stroke", ['a&b"', '#fff" onload="x'])
    def test_stroke_reads_back_as_given(self, tmp_path, stroke):
        f = tmp_path / "s.svg"
        cs.svg_render([(np.array([0j, 1 + 0j, 1j]), cs.PathStyle(stroke=stroke))], f)
        (path,) = ElementTree.parse(f).getroot()
        assert path.get("stroke") == stroke
        assert sorted(path.keys()) == ["d", "fill", "stroke", "stroke-opacity", "stroke-width"]

    @pytest.mark.parametrize(
        "stroke",
        [cli.MEAN_STYLE.stroke, cli.BOOT_STYLE.stroke, cli.PLAIN_STYLE.stroke, "#é0ff00", "it's"],
    )
    def test_stroke_without_those_characters_is_written_as_is(self, tmp_path, stroke):
        f = tmp_path / "s.svg"
        cs.svg_render([(np.array([0j, 1 + 0j, 1j]), cs.PathStyle(stroke=stroke))], f)
        assert f' stroke="{stroke}" '.encode() in f.read_bytes()

    def test_peak_memory_per_rendered_coordinate(self, tmp_path):
        # at most one path's text is held: 20 paths of 5,000 points peak at a
        # small multiple of one path, not at the 29 bytes per point of the file
        rng = np.random.default_rng(7)
        overlay = [(random_preshape(5_000, rng), cli.PLAIN_STYLE) for _ in range(20)]
        f = tmp_path / "big.svg"
        tracemalloc.start()
        try:
            cs.svg_render(overlay, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        coordinates = 20 * 5_000
        assert f.stat().st_size > 25 * coordinates
        assert peak <= 30 * coordinates, peak / coordinates


class TestCsvWriters:
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300, 1e-320])
    def test_write_contour_same_text(self, tmp_path, scale):
        rng = np.random.default_rng(11)
        points = wobbly_points(50) + 0.01 * (rng.standard_normal(50) + 1j * rng.standard_normal(50))
        points[[1, 25]] = [complex(-0.0, 0.1), complex(0.1, -0.0)]
        scaled = np.empty_like(points)  # part by part: a complex product would turn -0.0 to 0.0
        scaled.real, scaled.imag = points.real * scale, points.imag * scale
        contour = cs.Contour(scaled)
        f = tmp_path / "c.csv"
        cs.write_contour(contour, f)
        text = f.read_bytes()
        assert text == contour_csv(contour).encode("ascii")
        assert b"\n-0," in text and b",-0\n" in text

    def test_bootstrap_summary_and_overlay_same_bytes(self, tmp_path, monkeypatch):
        manifest = write_sample(tmp_path)
        special = np.array([0.0, -0.0, 5e-324, 1e-310, 1e300, np.inf, np.nan])
        made = []

        def region_with_special_distances(shapes, B, alpha, seed):
            region = cs.bootstrap_region(shapes, B=B, alpha=alpha, seed=seed)
            d = np.array(region.distances)
            d[: len(special)] = special
            made.append(cs.BootstrapRegion(region.sample_mean, region.boot_means, d, alpha))
            return made[-1]

        monkeypatch.setattr(cli, "bootstrap_region", region_with_special_distances)
        out = tmp_path / "out"
        common = ["--manifest", str(manifest), "--out", str(out)]
        assert cli.main(["bootstrap", *common, "--B", "60", "--alpha", "0.1"]) == 0
        (region,) = made
        summary = (out / "bootstrap_summary.csv").read_bytes()
        assert summary == bootstrap_summary_csv(60, 0.1, region).encode("ascii")
        assert b",nan," in summary and b",inf," in summary and b",-0," in summary
        overlay = [
            (cs.align_rotation(bm, region.sample_mean), cli.BOOT_STYLE)
            for bm, inc in zip(region.boot_means, region.included)
            if inc
        ]
        overlay.append((region.sample_mean, cli.MEAN_STYLE))
        assert (out / "bootstrap_region.svg").read_bytes() == svg_document(overlay)

    def test_approx_report_same_text(self, tmp_path, monkeypatch):
        manifest = write_sample(tmp_path)
        rng = np.random.default_rng(13)
        arrays = []

        def errors_with_special_values(curves, k_grid, repeats, seed):
            len_errs = rng.exponential(size=(len(k_grid), repeats * len(curves)))
            shape_sqs = rng.exponential(size=len_errs.shape) * 1e-300
            len_errs[1] = 0.0
            shape_sqs[2, 0] = np.nan
            arrays.append((len_errs, shape_sqs))
            return arrays[-1]

        monkeypatch.setattr(cli, "approximation_errors", errors_with_special_values)
        out = tmp_path / "out"
        common = ["--manifest", str(manifest), "--out", str(out)]
        assert cli.main(["approx", *common, "--k-grid", "8,12,30", "--repeats", "3"]) == 0
        (len_errs, shape_sqs), = arrays
        want = approx_report_csv((8, 12, 30), len_errs, shape_sqs)
        assert (out / "approx_report.csv").read_bytes() == want.encode("ascii")


class TestCommandPeakMemory:
    """Whole commands traced against the ~25 bytes per sample coordinate of ``MAX_HELD_POINTS``.

    12 contours at k = 20,000: 240,000 sample coordinates.
    """

    @pytest.mark.parametrize("command, bound", [("mean", 55), ("plot", 40)])
    def test_peak_per_sample_coordinate(self, tmp_path, command, bound):
        manifest = write_sample(tmp_path, n=12)
        common = [command, "--manifest", str(manifest), "--out", str(tmp_path / "out")]
        # a small run first, so that modules numpy loads on first use are not counted
        assert cli.main([*common, "--k", "30"]) == 0
        tracemalloc.start()
        try:
            assert cli.main([*common, "--k", "20000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        coordinates = 12 * 20_000
        assert peak <= bound * coordinates, peak / coordinates


def write_sample(directory, n=6):
    lines = ["k 12\n", "seed 4\n"]
    for i in range(n):
        path = directory / f"w{i}.csv"
        cs.write_contour(cs.Contour(wobbly_points(60, amp3=0.2 + 0.03 * i, phase=0.4 * i)), path)
        lines.append(f"contour w{i} {path}\n")
    manifest = directory / "sample.manifest"
    manifest.write_text("".join(lines))
    return manifest
