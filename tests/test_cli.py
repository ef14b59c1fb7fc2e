import numpy as np
import pytest

import contourstat as cs
from contourstat.cli import _approx_one, main
from contourstat.contour import _signed_area
from support import wobbly_points


@pytest.fixture()
def sample_dir(tmp_path):
    """Manifest of eight noisy variants of a wobbly contour."""
    rng = np.random.default_rng(1)
    lines = ["seed 11", "k 40", "correspondence shared-times"]
    for i in range(8):
        pts = wobbly_points(120, phase=0.05 * i) * (1 + 0.01 * rng.standard_normal(120))
        f = tmp_path / f"c{i}.csv"
        cs.write_contour(cs.Contour(pts), f)
        lines.append(f"contour id{i} {f.name}")
    man = tmp_path / "sample.manifest"
    man.write_text("\n".join(lines) + "\n")
    return tmp_path, man


def svg_path_count(path) -> int:
    return path.read_text().count("<path ")


class TestMeanCommand:
    def test_single_contour_mean_svg_has_one_path(self, tmp_path):
        f = tmp_path / "c.csv"
        cs.write_contour(cs.Contour(wobbly_points(90)), f)
        man = tmp_path / "one.manifest"
        man.write_text(f"k 30\ncontour only {f.name}\n")
        out = tmp_path / "out"
        assert main(["mean", "--manifest", str(man), "--out", str(out)]) == 0
        assert (out / "mean_shape.csv").exists()
        assert svg_path_count(out / "mean_shape.svg") == 1

    def test_mean_csv_is_a_valid_contour(self, sample_dir):
        tmp_path, man = sample_dir
        out = tmp_path / "out"
        assert main(["mean", "--manifest", str(man), "--out", str(out)]) == 0
        mean_contour = cs.read_contour(out / "mean_shape.csv")
        assert len(mean_contour) == 40


class TestTestCommand:
    def test_m0_equal_to_computed_mean_gives_zero_critical_delta(self, sample_dir, capsys):
        tmp_path, man = sample_dir
        out = tmp_path / "out"
        assert main(["mean", "--manifest", str(man), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(
            [
                "test",
                "--manifest", str(man),
                "--out", str(out),
                "--m0", str(out / "mean_shape.csv"),
                "--solve-delta",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        crit = float(captured.split("critical_delta")[1].split()[0])
        assert crit < 1e-6

    def test_delta_run_prints_all_fields_and_exits_zero(self, sample_dir, capsys):
        tmp_path, man = sample_dir
        hyp = tmp_path / "hyp.csv"
        cs.write_contour(cs.Contour(wobbly_points(100, amp3=0.32)), hyp)
        out = tmp_path / "out"
        code = main(
            [
                "test",
                "--manifest", str(man),
                "--out", str(out),
                "--m0", str(hyp),
                "--delta", "0.05",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        for field in ("phi", "s_n", "T_n", "p_value", "critical_delta", "decision"):
            assert field in captured

    def test_missing_delta_is_an_error(self, sample_dir, capsys):
        tmp_path, man = sample_dir
        hyp = tmp_path / "hyp.csv"
        cs.write_contour(cs.Contour(wobbly_points(100)), hyp)
        code = main(
            ["test", "--manifest", str(man), "--out", str(tmp_path / "o"), "--m0", str(hyp)]
        )
        assert code == 2
        assert "delta" in capsys.readouterr().err

    def test_degenerate_variance_exits_two(self, tmp_path, capsys):
        # identical contours concentrate the sample at one shape
        f = tmp_path / "c.csv"
        cs.write_contour(cs.Contour(wobbly_points(100)), f)
        man = tmp_path / "m.manifest"
        man.write_text("k 30\ncontour a c.csv\ncontour b c.csv\ncontour c c.csv\n")
        hyp = tmp_path / "hyp.csv"
        cs.write_contour(cs.Contour(wobbly_points(100, amp3=0.4)), hyp)
        code = main(
            [
                "test",
                "--manifest", str(man),
                "--out", str(tmp_path / "o"),
                "--m0", str(hyp),
                "--delta", "0.1",
            ]
        )
        assert code == 2
        assert "variance" in capsys.readouterr().err


class TestBootstrapCommand:
    def test_outputs_and_determinism(self, sample_dir, capsys):
        tmp_path, man = sample_dir
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            code = main(
                [
                    "bootstrap",
                    "--manifest", str(man),
                    "--out", str(out),
                    "--B", "60",
                    "--seed", "3",
                ]
            )
            assert code == 0
        assert (out1 / "bootstrap_summary.csv").read_bytes() == (
            out2 / "bootstrap_summary.csv"
        ).read_bytes()
        assert (out1 / "bootstrap_region.svg").read_bytes() == (
            out2 / "bootstrap_region.svg"
        ).read_bytes()

    def test_overlay_has_included_means_plus_red_mean_on_top(self, sample_dir):
        tmp_path, man = sample_dir
        out = tmp_path / "boot"
        assert (
            main(
                [
                    "bootstrap",
                    "--manifest", str(man),
                    "--out", str(out),
                    "--B", "60",
                ]
            )
            == 0
        )
        summary = (out / "bootstrap_summary.csv").read_text().splitlines()
        included = sum(int(line.rsplit(",", 1)[1]) for line in summary[2:])
        svg = (out / "bootstrap_region.svg").read_text()
        assert svg.count("<path ") == included + 1
        last_path = svg.rstrip().splitlines()[-2]
        assert "#d62728" in last_path  # sample mean drawn last, on top

    @pytest.mark.parametrize("value", ["abc", "4"])
    def test_shape_threads_is_ignored(self, sample_dir, capsys, monkeypatch, value):
        tmp_path, man = sample_dir
        out = tmp_path / "boot"
        argv = ["bootstrap", "--manifest", str(man), "--out", str(out), "--B", "60"]
        monkeypatch.delenv("SHAPE_THREADS", raising=False)
        runs = []
        for env in (None, value):
            if env is not None:
                monkeypatch.setenv("SHAPE_THREADS", env)
            assert main(argv) == 0
            runs.append(
                (
                    capsys.readouterr().out,
                    (out / "bootstrap_summary.csv").read_bytes(),
                    (out / "bootstrap_region.svg").read_bytes(),
                )
            )
        assert runs[0] == runs[1]


class TestApproxCommand:
    def test_monotone_error_and_exact_zero_at_full_resolution(self, tmp_path, capsys):
        K = 500
        f = tmp_path / "e.csv"
        theta = np.linspace(0, 2 * np.pi, K, endpoint=False)
        cs.write_contour(cs.Contour(2 * np.cos(theta) + 1.2j * np.sin(theta) + 0.01 * np.cos(5 * theta)), f)
        man = tmp_path / "m.manifest"
        man.write_text(f"seed 2\ncontour ell {f.name}\n")
        out = tmp_path / "rep"
        code = main(
            [
                "approx",
                "--manifest", str(man),
                "--out", str(out),
                "--k-grid", f"50,100,200,400,{K}",
                "--repeats", "30",
            ]
        )
        assert code == 0
        rows = (out / "approx_report.csv").read_text().splitlines()[1:]
        means = [float(r.split(",")[1]) for r in rows]
        assert means[0] > means[1] > means[2] > means[3]  # refinement
        assert means[4] == 0.0  # k == K uses the vertex fractions themselves

    def test_single_repeat_zero_sd(self, tmp_path):
        f = tmp_path / "c.csv"
        cs.write_contour(cs.Contour(wobbly_points(150)), f)
        man = tmp_path / "m.manifest"
        man.write_text(f"contour a {f.name}\n")
        out = tmp_path / "rep"
        assert (
            main(
                [
                    "approx",
                    "--manifest", str(man),
                    "--out", str(out),
                    "--k-grid", "40,80",
                    "--repeats", "1",
                ]
            )
            == 0
        )
        for row in (out / "approx_report.csv").read_text().splitlines()[1:]:
            _, _, sd_len, _, sd_shape = row.split(",")
            assert float(sd_len) == 0.0
            assert float(sd_shape) == 0.0


def crescent_points():
    outer = np.exp(1j * np.linspace(-0.9 * np.pi, 0.9 * np.pi, 100))
    inner = 0.3 + 0.75 * np.exp(1j * np.linspace(0.8 * np.pi, -0.8 * np.pi, 100))
    return np.concatenate((outer, inner))


def arclength_resample(points, fracs):
    """Closed polygon at arclength fractions, in its own vertex order (np.interp oracle)."""
    closed = np.append(points, points[0])
    cum = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(closed)))))
    s = np.asarray(fracs) * cum[-1]
    return np.interp(s, cum, closed.real) + 1j * np.interp(s, cum, closed.imag)


class TestApproxClockwiseKgon:
    """k-gons whose stopping times all fall on a concave arc wind clockwise."""

    def test_rows_match_arclength_oracle(self):
        curve = cs.canonicalize(cs.Contour(crescent_points()))
        ref_fracs = curve.cum_lengths[:-1] / curve.total_length
        clockwise = 0
        for seed in range(20):
            kgon = cs.evaluate(curve, cs.select_stopping_times(4, np.random.default_rng(seed)))
            clockwise += _signed_area(kgon.points) < 0
            expected = cs.chord_distance(
                cs.preshape(arclength_resample(kgon.points, ref_fracs)),
                cs.preshape(curve.vertices),
            ) ** 2
            _, shape_sq = _approx_one(curve, 4, np.random.default_rng(seed))
            assert abs(shape_sq - expected) < 1e-12
        assert clockwise >= 3

    def test_approx_command_exits_zero(self, tmp_path):
        f = tmp_path / "crescent.csv"
        cs.write_contour(cs.Contour(crescent_points()), f)
        man = tmp_path / "m.manifest"
        man.write_text(f"seed 0\ncontour c {f.name}\n")
        out = tmp_path / "rep"
        argv = ["approx", "--manifest", str(man), "--out", str(out)]
        assert main([*argv, "--k-grid", "4,8", "--repeats", "10"]) == 0
        rows = (out / "approx_report.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(np.isfinite([float(x) for x in r.split(",")]).all() for r in rows)


class TestApproxZeroAreaKgon:
    """A k-gon whose stopping times all fall on one straight edge has zero area."""

    def write_sample(self, tmp_path):
        square = np.array([0, 1, 1 + 1j, 1j])
        rect = np.array([0, 2, 2 + 1j, 1j])
        for name, pts in (("sq", square), ("rect", rect)):
            cs.write_contour(cs.Contour(pts), tmp_path / f"{name}.csv")
        man = tmp_path / "m.manifest"
        man.write_text("seed 3\nk 3\ncontour sq sq.csv\ncontour rect rect.csv\n")
        return man

    def test_approx_command_exits_zero(self, tmp_path, capsys):
        man = self.write_sample(tmp_path)
        out = tmp_path / "rep"
        argv = ["approx", "--manifest", str(man), "--out", str(out)]
        assert main([*argv, "--k-grid", "3", "--repeats", "50"]) == 0
        rows = (out / "approx_report.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        assert np.isfinite([float(x) for x in rows[0].split(",")]).all()

    def test_rows_match_arclength_oracle(self):
        curve = cs.canonicalize(cs.Contour(np.array([0, 1, 1 + 1j, 1j])))
        ref_fracs = curve.cum_lengths[:-1] / curve.total_length
        flat = 0
        for seed in range(40):
            kgon = cs.evaluate(curve, cs.select_stopping_times(3, np.random.default_rng(seed)))
            flat += _signed_area(kgon.points) == 0
            expected = cs.chord_distance(
                cs.preshape(arclength_resample(kgon.points, ref_fracs)),
                cs.preshape(curve.vertices),
            ) ** 2
            _, shape_sq = _approx_one(curve, 3, np.random.default_rng(seed))
            assert abs(shape_sq - expected) < 1e-12
        assert flat >= 3


class TestPlotCommand:
    def test_plot_writes_one_path_per_contour(self, sample_dir):
        tmp_path, man = sample_dir
        out = tmp_path / "plots"
        assert main(["plot", "--manifest", str(man), "--out", str(out)]) == 0
        assert svg_path_count(out / "contours.svg") == 8


class TestEndToEndDeterminism:
    def test_full_pipeline_is_a_pure_function_of_inputs(self, sample_dir):
        tmp_path, man = sample_dir
        hyp = tmp_path / "hyp.csv"
        cs.write_contour(cs.Contour(wobbly_points(100, amp3=0.3)), hyp)
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"full_{run}"
            assert main(["mean", "--manifest", str(man), "--out", str(out)]) == 0
            assert (
                main(
                    [
                        "bootstrap",
                        "--manifest", str(man),
                        "--out", str(out),
                        "--B", "50",
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "approx",
                        "--manifest", str(man),
                        "--out", str(out),
                        "--k-grid", "30,60",
                        "--repeats", "5",
                    ]
                )
                == 0
            )
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                }
            )
        assert outputs[0] == outputs[1]


class TestSvgRender:
    def test_identical_input_identical_bytes(self, tmp_path):
        square = np.array([0 + 0j, 1 + 0j, 1 + 1j, 0 + 1j])
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        cs.svg_render([(square, cs.PathStyle())], a)
        cs.svg_render([(square, cs.PathStyle())], b)
        assert a.read_bytes() == b.read_bytes()
        assert svg_path_count(a) == 1

    def test_unit_square_single_closed_path_of_four_points(self, tmp_path):
        square = np.array([0 + 0j, 1 + 0j, 1 + 1j, 0 + 1j])
        f = tmp_path / "sq.svg"
        cs.svg_render([(square, cs.PathStyle())], f)
        text = f.read_text()
        path_line = next(line for line in text.splitlines() if "<path" in line)
        assert path_line.count(" L ") == 3  # M + 3 L's, then Z
        assert '"M' in path_line or "M " in path_line
        assert "Z" in path_line

    def test_styles_honored(self, tmp_path):
        square = np.array([0 + 0j, 1 + 0j, 1 + 1j, 0 + 1j])
        f = tmp_path / "st.svg"
        cs.svg_render([(square, cs.PathStyle(stroke="#ff0000", width=2.0, opacity=0.5))], f)
        text = f.read_text()
        assert 'stroke="#ff0000"' in text
        assert 'stroke-opacity="0.5"' in text

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cs.svg_render([], tmp_path / "x.svg")
