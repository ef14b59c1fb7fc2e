"""Each output check accepts real outputs and rejects a tampered copy of them."""

import contextlib
import io
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from contourstat import cli
from workloads import ALPHA, DELTA, WORKLOADS, generate

W = replace(WORKLOADS["shared-k300"], n=5, k=12, B=50, k_grid=(6, 12), repeats=2, vertices=(60, 60))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of every step on a tiny workload: step -> (out dir, stdout)."""
    root = tmp_path_factory.mktemp("outputs")
    inputs = generate(W, 5, root / "inputs")
    result = {"reference": run.reference_mean(inputs)}
    for step, _ in run.STEPS:
        out = root / step
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(run.step_argv(step, W, inputs, out)) == 0
        result[step] = (out, buf.getvalue())
    return result


@pytest.fixture
def copy(outputs, tmp_path):
    def make(step):
        out, stdout = outputs[step]
        dest = tmp_path / step
        shutil.copytree(out, dest)
        return dest, stdout

    return make


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_real_outputs_pass(outputs):
    checker = run.Checker(W, outputs["reference"])
    for step, _ in run.STEPS:
        checker.check(step, *outputs[step])


def test_approx_rejects_missing_row(copy):
    out, _ = copy("approx")
    path = out / "approx_report.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_approx(out, W.k_grid)


def test_approx_rejects_non_finite(copy):
    out, _ = copy("approx")
    path = out / "approx_report.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    lines[1] = ",".join([cells[0], "nan", *cells[2:]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="not finite"):
        checks.check_approx(out, W.k_grid)


def test_mean_rejects_perturbed_vertex(copy, outputs):
    out, _ = copy("mean")
    path = out / "mean_shape.csv"
    lines = path.read_text().splitlines()
    x, y = map(float, lines[3].split(","))
    lines[3] = f"{x + 1e-7!r},{y!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="explicit eigh mean"):
        checks.check_mean(out, outputs["reference"])


def test_mean_accepts_rotated_phase(copy, outputs):
    # the mean is a shape: any unit complex multiple of it is the same answer
    out, _ = copy("mean")
    path = out / "mean_shape.csv"
    pts = np.array([complex(*map(float, line.split(","))) for line in path.read_text().split()])
    pts = pts * np.exp(0.7j)
    path.write_text("".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in pts))
    checks.check_mean(out, outputs["reference"])


def test_test_rejects_flipped_decision(outputs):
    _, stdout = outputs["test"]
    fields = checks.stdout_fields(stdout)
    flipped = "fail-to-reject" if fields["decision"] == "reject" else "reject"
    with pytest.raises(checks.CheckFailed, match="decision"):
        checks.check_test(stdout.replace(fields["decision"], flipped), DELTA)


def test_solve_delta_rejects_other_critical_delta(outputs):
    fields = checks.stdout_fields(outputs["test"][1])
    _, stdout = outputs["solve-delta"]
    crit = checks.stdout_fields(stdout)["critical_delta"]
    tampered = stdout.replace(crit, repr(float(crit) * (1 + 1e-6)))
    with pytest.raises(checks.CheckFailed, match="critical_delta"):
        checks.check_solve_delta(tampered, fields)


def test_bootstrap_rejects_wrong_radius(copy):
    out, stdout = copy("bootstrap")
    path = out / "bootstrap_summary.csv"
    lines = path.read_text().splitlines()
    dist = sorted(float(line.split(",")[1]) for line in lines[2:])
    radius = lines[0].split("radius=")[1]
    _edit(path, f"radius={radius}", f"radius={dist[-1]!r}")
    with pytest.raises(checks.CheckFailed, match="order statistic"):
        checks.check_bootstrap(out, stdout, W.B, ALPHA)


def test_bootstrap_rejects_flipped_included_flag(copy):
    out, stdout = copy("bootstrap")
    path = out / "bootstrap_summary.csv"
    lines = path.read_text().splitlines()
    idx, d, inc = lines[2].split(",")
    lines[2] = ",".join([idx, d, "0" if inc == "1" else "1"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="included flags"):
        checks.check_bootstrap(out, stdout, W.B, ALPHA)


def test_bootstrap_rejects_wrong_included_count(copy):
    out, stdout = copy("bootstrap")
    count = checks.stdout_fields(stdout)["included"]
    tampered = stdout.replace(f"included  {count}", f"included  {int(count) - 1}")
    with pytest.raises(checks.CheckFailed, match="included"):
        checks.check_bootstrap(out, tampered, W.B, ALPHA)


def test_threaded_bootstrap_must_match_serial_bytes(copy):
    serial, _ = copy("bootstrap")
    parallel, _ = copy("bootstrap-par")
    checks.check_same_bootstrap(serial, parallel)
    path = parallel / "bootstrap_summary.csv"
    path.write_text(path.read_text().replace("\n0,", "\n0,1", 1))
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_same_bootstrap(serial, parallel)


def test_plot_rejects_missing_path(copy):
    out, _ = copy("plot")
    path = out / "contours.svg"
    text = path.read_text()
    start = text.index("<path ")
    path.write_text(text[:start] + text[text.index("/>\n", start) + 3 :])
    with pytest.raises(checks.CheckFailed, match="paths"):
        checks.check_plot(out, W.n)


def test_malformed_output_is_a_failed_check(copy, outputs):
    out, _ = copy("mean")
    (out / "mean_shape.csv").write_text("1.0,abc\n")
    with pytest.raises(checks.CheckFailed, match="malformed"):
        run.Checker(W, outputs["reference"]).check("mean", out, "")


def test_calibration_rejects_short_parse():
    proc = subprocess.run(
        [sys.executable, str(Path(run.BENCH) / "calibrate.py")],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    checks.check_calibration(proc.stdout)
    with pytest.raises(checks.CheckFailed, match="calibration"):
        checks.check_calibration(proc.stdout.replace("150000", "149999", 1))
