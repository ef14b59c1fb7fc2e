import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contourstat as cs
from contourstat import cli, shape_space
from contourstat.cli import _approx_rows, main
from contourstat.contour import _signed_area
from support import approx_one, wobbly_points


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


class TestBadOptions:
    """Out-of-range CLI numbers end in exit code 2 and a message naming option and value."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["approx", "--k-grid", "abc"], "--k-grid must list integers, got 'abc'"),
            (["approx", "--k-grid", "40,2"], "--k-grid must list one or more k >= 3, got '40,2'"),
            (["approx", "--k-grid", ","], "--k-grid must list one or more k >= 3, got ','"),
            (["approx", "--repeats", "0"], "--repeats must be at least 1, got 0"),
            (["approx", "--repeats", "-1"], "--repeats must be at least 1, got -1"),
            (["bootstrap", "--B", "10"], "--B must be at least 50 resamples, got 10"),
            (["bootstrap", "--alpha", "1.5"], "--alpha must lie in (0, 1), got 1.5"),
            (["test", "--solve-delta", "--m0", "c0.csv", "--alpha", "0"], "--alpha must lie in (0, 1), got 0"),
        ],
    )
    def test_exit_two_with_message(self, sample_dir, capsys, argv, message):
        tmp_path, man = sample_dir
        out = tmp_path / "o"
        code = main([argv[0], "--manifest", str(man), "--out", str(out), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()


class TestOneContourManifest:
    """test and bootstrap need two contours; one ends in exit 2 naming the count."""

    def write_sample(self, tmp_path):
        f = tmp_path / "c.csv"
        cs.write_contour(cs.Contour(wobbly_points(90)), f)
        man = tmp_path / "one.manifest"
        man.write_text(f"k 30\ncontour only {f.name}\n")
        return f, man

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--delta", "0.1"],
            ["test", "--solve-delta"],
            ["bootstrap", "--B", "50"],
        ],
    )
    def test_exit_two_with_message(self, tmp_path, capsys, argv):
        f, man = self.write_sample(tmp_path)
        if argv[0] == "test":
            argv = [*argv, "--m0", str(f)]
        code = main([argv[0], "--manifest", str(man), "--out", str(tmp_path / "o"), *argv[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {argv[0]} needs at least 2 contours, the manifest lists 1\n"

    @pytest.mark.parametrize("command", ["mean", "plot"])
    def test_mean_and_plot_still_run(self, tmp_path, command):
        _, man = self.write_sample(tmp_path)
        assert main([command, "--manifest", str(man), "--out", str(tmp_path / "o")]) == 0


class TestFailuresNameTheirInput:
    """A contour that cannot be canonicalized is named in the exit-2 message."""

    ZERO_AREA = "contour has zero signed area; orientation undefined"

    @pytest.mark.parametrize("command", ["approx", "mean", "plot"])
    def test_manifest_entry_is_named(self, sample_dir, capsys, command):
        tmp_path, man = sample_dir
        cs.write_contour(cs.Contour(np.array([0, 1, 2 + 0j])), tmp_path / "flat.csv")
        man.write_text(man.read_text() + "contour flat flat.csv\n")
        code = main([command, "--manifest", str(man), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: entry 'flat': {self.ZERO_AREA}\n"

    @pytest.mark.parametrize("mode", [["--delta", "0.1"], ["--solve-delta"]])
    def test_m0_path_is_named(self, sample_dir, capsys, mode):
        tmp_path, man = sample_dir
        hyp = tmp_path / "collinear.csv"
        cs.write_contour(cs.Contour(np.arange(5) + 0j), hyp)  # 5 vertices, k = 4
        argv = ["test", "--manifest", str(man), "--out", str(tmp_path / "o"), "--k", "4"]
        assert main([*argv, "--m0", str(hyp), *mode]) == 2
        assert capsys.readouterr().err == f"error: --m0 {hyp}: {self.ZERO_AREA}\n"


class TestWorkDoneOncePerCommand:
    def count_calls(self, monkeypatch, calls, module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_manifest_parsed_once(self, sample_dir, monkeypatch):
        tmp_path, man = sample_dir
        calls = []
        self.count_calls(monkeypatch, calls, cli, "parse_manifest")
        for argv in (["mean"], ["plot"], ["approx", "--k-grid", "10", "--repeats", "1"]):
            calls.clear()
            assert main([argv[0], "--manifest", str(man), "--out", str(tmp_path / "o"), *argv[1:]]) == 0
            assert calls == ["parse_manifest"]

    def test_solve_delta_computes_the_mean_once(self, sample_dir, monkeypatch, capsys):
        tmp_path, man = sample_dir
        hyp = tmp_path / "hyp.csv"
        cs.write_contour(cs.Contour(wobbly_points(100, amp3=0.32)), hyp)
        calls = []
        self.count_calls(monkeypatch, calls, cs.inference, "extrinsic_mean")
        self.count_calls(monkeypatch, calls, cli, "extrinsic_mean")
        argv = ["test", "--manifest", str(man), "--out", str(tmp_path / "o"), "--m0", str(hyp)]
        assert main([*argv, "--solve-delta", "--alpha", "0.1"]) == 0
        assert len(calls) == 1
        solved = capsys.readouterr().out
        shapes, times = cs.load_sample(cs.parse_manifest(man))
        m0 = cs.preshape(cs.evaluate(cs.canonicalize(cs.read_contour(hyp)), times))
        result = cs.neighborhood_test(shapes, m0, cs.TestConfig(0.05, alpha=0.1))
        assert f"phi             {result.squared_distance:.10g}\n" in solved
        assert f"s_n             {result.std_error:.10g}\n" in solved
        assert f"critical_delta  {cs.critical_radius(shapes, m0, 0.1):.10g}\n" in solved


def refuse_dense(*args):
    raise AssertionError("a command formed the k x k mean matrix")


class TestSpectralPath:
    """Every command gets its eigensystem from the thin SVD of the sample."""

    @pytest.mark.parametrize("k", [40, 6], ids=["n<k", "n>k"])
    def test_no_dense_matrix_in_any_command(self, sample_dir, monkeypatch, capsys, k):
        tmp_path, man = sample_dir  # n = 8
        hyp = tmp_path / "hyp.csv"
        cs.write_contour(cs.Contour(wobbly_points(100, amp3=0.32)), hyp)
        monkeypatch.setattr(shape_space, "mean_matrix", refuse_dense)
        monkeypatch.setattr(shape_space, "eigensystem", refuse_dense)
        common = ["--manifest", str(man), "--out", str(tmp_path / "out"), "--k", str(k)]
        for extra in (
            ["mean"],
            ["test", "--m0", str(hyp), "--delta", "0.05"],
            ["test", "--m0", str(hyp), "--solve-delta"],
            ["bootstrap", "--B", "50"],
        ):
            assert main([extra[0], *common, *extra[1:]]) == 0

    def test_union_of_times_with_k_over_1000(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        lines = ["seed 3", "k 250", "correspondence union-of-times"]
        for i in range(5):
            pts = wobbly_points(300, amp3=0.2 + 0.02 * i, phase=0.1 * i)
            pts = pts * (1 + 0.01 * rng.standard_normal(300))
            cs.write_contour(cs.Contour(pts), tmp_path / f"c{i}.csv")
            lines.append(f"contour id{i} c{i}.csv")
        man = tmp_path / "union.manifest"
        man.write_text("\n".join(lines) + "\n")
        hyp = tmp_path / "hyp.csv"
        cs.write_contour(cs.Contour(wobbly_points(100, amp3=0.32)), hyp)
        shapes, times = cs.load_sample(cs.parse_manifest(man))
        assert times.k >= 1000
        out = tmp_path / "out"
        common = ["--manifest", str(man), "--out", str(out)]
        assert main(["mean", *common]) == 0
        assert main(["test", *common, "--m0", str(hyp), "--solve-delta"]) == 0
        assert main(["bootstrap", *common, "--B", "50"]) == 0
        assert (out / "bootstrap_summary.csv").exists()
        gam = np.stack([s.coords for s in shapes])
        _, vecs = np.linalg.eigh(gam.T @ gam.conj() / len(shapes))
        written = cs.read_contour(out / "mean_shape.csv").points
        assert len(written) == times.k
        assert cs.chord_distance(cs.preshape(written), cs.preshape(vecs[:, -1])) < 1e-9


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
        times = [cs.select_stopping_times(4, np.random.default_rng(seed)) for seed in range(20)]
        _, shape_sqs = _approx_rows(curve, np.array([t.times for t in times]))
        clockwise = 0
        for t, shape_sq in zip(times, shape_sqs):
            kgon = cs.evaluate(curve, t)
            clockwise += _signed_area(kgon.points) < 0
            expected = cs.chord_distance(
                cs.preshape(arclength_resample(kgon.points, ref_fracs)),
                cs.preshape(curve.vertices),
            ) ** 2
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
        times = [cs.select_stopping_times(3, np.random.default_rng(seed)) for seed in range(40)]
        _, shape_sqs = _approx_rows(curve, np.array([t.times for t in times]))
        flat = 0
        for t, shape_sq in zip(times, shape_sqs):
            kgon = cs.evaluate(curve, t)
            flat += _signed_area(kgon.points) == 0
            expected = cs.chord_distance(
                cs.preshape(arclength_resample(kgon.points, ref_fracs)),
                cs.preshape(curve.vertices),
            ) ** 2
            assert abs(shape_sq - expected) < 1e-12
        assert flat >= 3


    def test_two_reference_fractions_on_one_point(self):
        # a regular pentagon and three times on its last edge: the k-gon goes
        # out and back along one segment, so the reference fractions 0.4 and
        # 0.6 both land on one point of it
        curve = cs.canonicalize(cs.Contour(wobbly_points(5, amp3=0.0, amp7=0.0)))
        times = cs.select_stopping_times(3, np.random.default_rng(330))
        kgon = cs.evaluate(curve, times)
        assert abs(_signed_area(kgon.points)) < 1e-15
        ref_fracs = curve.cum_lengths[:-1] / curve.total_length
        with pytest.raises(cs.DegenerateContourError, match="equal consecutive points"):
            cs.evaluate(cs.ParamCurve.from_vertices(kgon), cs.StoppingTimes(ref_fracs))
        at_ref = arclength_resample(kgon.points, ref_fracs)
        _, shape_sqs = _approx_rows(curve, times.times[None])
        expected = cs.chord_distance(cs.preshape(at_ref), cs.preshape(curve.vertices)) ** 2
        assert abs(shape_sqs[0] - expected) < 1e-12
        assert_rows_equal_oracle(curve, 3, [330])


def dent_points():
    """Straight edge out of the tip at -3, then a concave arc sagging back to the tip."""
    t = np.linspace(0.0, 1.0, 40)[1:-1]
    sag = (1 + 1j) + (-4 - 1j) * t - 0.6j * np.sin(np.pi * t)
    return np.concatenate(([-3, 0, 1 - 1j, 2, 1 + 1j], sag))


def assert_rows_equal_oracle(curve, k, seeds):
    """_approx_rows on one batch is bit for bit the scalar oracle looped over it."""
    expected = [approx_one(curve, k, np.random.default_rng(seed)) for seed in seeds]
    if k == len(curve):
        times = np.tile(curve.cum_lengths[:-1] / curve.total_length, (len(seeds), 1))
    else:
        times = np.array(
            [cs.select_stopping_times(k, np.random.default_rng(seed)).times for seed in seeds]
        )
    len_errs, shape_sqs = _approx_rows(curve, times)
    assert len_errs.tolist() == [e[0] for e in expected]
    assert shape_sqs.tolist() == [e[1] for e in expected]


class TestApproxRowsOracle:
    """The batched k-gon rows equal the scalar chain of `support.approx_one` exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(5, 60),
        amp3=st.floats(0.0, 0.45),
        amp7=st.floats(0.0, 0.2),
        phase=st.floats(0.0, 6.3),
        R=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rows_equal_oracle(self, K, amp3, amp7, phase, R, seed, data):
        curve = cs.canonicalize(cs.Contour(wobbly_points(K, amp3=amp3, amp7=amp7, phase=phase)))
        k = data.draw(st.integers(3, K + 1), label="k")
        assert_rows_equal_oracle(curve, k, range(seed, seed + R))

    def test_k_equal_to_vertex_count(self):
        curve = cs.canonicalize(cs.Contour(wobbly_points(30)))
        assert_rows_equal_oracle(curve, 30, range(3))
        len_errs, _ = _approx_rows(curve, curve.cum_lengths[None, :-1] / curve.total_length)
        assert len_errs.tolist() == [0.0]

    def test_batch_mixing_clockwise_flat_and_ordinary_rows(self):
        curve = cs.canonicalize(cs.Contour(dent_points()))
        seeds = range(40)
        areas = [
            _signed_area(cs.evaluate(curve, cs.select_stopping_times(3, np.random.default_rng(s))).points)
            for s in seeds
        ]
        assert sum(a < 0 for a in areas) >= 3
        assert sum(a == 0 for a in areas) >= 1
        assert sum(a > 0 for a in areas) >= 3
        assert_rows_equal_oracle(curve, 3, seeds)

    def test_report_equals_looped_oracle(self, tmp_path):
        contours = {
            "w": wobbly_points(60, amp3=0.4),
            "cres": crescent_points(),
            "dent": dent_points(),
        }
        lines = ["seed 5"]
        for name, pts in contours.items():
            cs.write_contour(cs.Contour(pts), tmp_path / f"{name}.csv")
            lines.append(f"contour {name} {name}.csv")
        man = tmp_path / "m.manifest"
        man.write_text("\n".join(lines) + "\n")
        k_grid, repeats = (3, 4, 60, 61), 7
        out = tmp_path / "rep"
        argv = ["approx", "--manifest", str(man), "--out", str(out)]
        assert main([*argv, "--k-grid", ",".join(map(str, k_grid)), "--repeats", str(repeats)]) == 0

        curves = [cs.canonicalize(cs.read_contour(tmp_path / f"{n}.csv")) for n in contours]
        report = ["k,mean_rel_len_err,sd_rel_len_err,mean_sq_shape_dist,sd_sq_shape_dist"]
        for ki, k in enumerate(k_grid):
            len_errs, shape_sqs = [], []
            for rep in range(repeats):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(ki, rep)))
                for curve in curves:
                    len_err, shape_sq = approx_one(curve, k, rng)
                    len_errs.append(len_err)
                    shape_sqs.append(shape_sq)
            m1, s1 = float(np.mean(len_errs)), float(np.std(len_errs))
            m2, s2 = float(np.mean(shape_sqs)), float(np.std(shape_sqs))
            report.append(f"{k},{m1:.10g},{s1:.10g},{m2:.10g},{s2:.10g}")
        assert (out / "approx_report.csv").read_bytes() == ("\n".join(report) + "\n").encode()


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
