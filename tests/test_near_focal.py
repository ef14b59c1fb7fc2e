"""Near-focal samples: the neighborhood test ends in a result or a ContourStatError.

Close to a focal spectrum the extrinsic covariance S grows as 1/gap^2, and
so does the roundoff of the studentizing form 4 <offset, S offset>.  The
library case draws two-shape samples whose relative gap ranges from about
1e-8 to 1e-1; the command-line case runs a two-contour sample of relative
gap 7.5e-4, and the same sample with its second contour moved along a line,
through ``contourstat test`` in both modes.  A run on the command line
exits 0, or exits 2 with one ``error: `` line on stderr.  This file needs
numpy alone.
"""

import numpy as np
import pytest

import contourstat as cs
from contourstat.cli import main
from support import random_preshape

K = 40
# the sample's second contour carries 0.3 (p0 + i p1) e^{it}: this is the
# point of the sweep where its top eigenvalues would coincide
ROOT = (-0.4996038875763408, -0.43092575866026467)
SAMPLE = (-0.4986038875763408, -0.43062575866026465)  # relative gap 7.5e-4
SWEEP = [0.0] + [sign * e for sign in (1, -1) for e in np.logspace(-9, -2, 29)]
CASES = [SAMPLE] + [(ROOT[0] + e, ROOT[1] + 0.3 * e) for e in SWEEP]


def csv_text(points):
    return "".join(f"{z.real:.17g},{z.imag:.17g}\n" for z in points)


def write_sample(directory, p0, p1):
    """The two contours a and b, their manifest and m0."""
    t = 2 * np.pi * np.arange(K) / K
    a = np.exp(1j * t) * (1 + 0.3 * np.cos(3 * t))
    a[0] *= 1.5
    b = np.exp(2j * t) * (1 + 0.1 * np.cos(3 * t + 1))
    b[5] *= 1.8
    b = b + 0.3 * (p0 + 1j * p1) * np.exp(1j * t)
    m0 = np.exp(1j * t) * (1 + 0.25 * np.cos(3 * t + 0.2))
    for name, points in (("a", a), ("b", b), ("m0", m0)):
        (directory / f"{name}.csv").write_text(csv_text(points))
    manifest = directory / "manifest.txt"
    manifest.write_text("seed 7\nk 20\ncorrespondence shared-times\ncontour a a.csv\ncontour b b.csv\n")
    return manifest


@pytest.mark.parametrize("p", CASES, ids=["sample"] + [f"root{e:+.3g}" for e in SWEEP])
def test_cli_test_exits_zero_or_two(tmp_path, capsys, p):
    manifest = write_sample(tmp_path, *p)
    for mode in (["--delta", "0.1"], ["--solve-delta"]):
        argv = ["test", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
        code = main(argv + ["--m0", str(tmp_path / "m0.csv"), *mode])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_test_near_focal_sample(tmp_path, capsys):
    # s_n is large and T_n near 0: the test has almost no power here
    manifest = write_sample(tmp_path, *SAMPLE)
    argv = ["test", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    assert main(argv + ["--m0", str(tmp_path / "m0.csv"), "--delta", "0.1"]) == 0
    fields = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert float(fields["s_n"]) > 1000.0
    assert abs(float(fields["T_n"])) < 0.01
    assert fields["decision"] == "fail-to-reject"


def near_focal_sample(rng, k=12, noise=0.01):
    """a, b orthogonal to a plus eps a (eps = 10^U(-8, -1)), and 0-3 noisy copies of each."""
    a = random_preshape(k, rng).coords
    c = random_preshape(k, rng).coords
    b = c - np.vdot(a, c) * a
    b = b / np.linalg.norm(b) + 10 ** rng.uniform(-8, -1) * a
    sample = [cs.preshape(a), cs.preshape(b)]
    for base in (a, b):
        for _ in range(int(rng.integers(0, 4))):
            sample.append(cs.preshape(base + noise * (rng.standard_normal(k) + 1j * rng.standard_normal(k))))
    return sample


def test_critical_radius_on_near_focal_samples():
    rng = np.random.default_rng(2024)
    outcomes = {"solved": 0, "focal": 0}
    for _ in range(1000):
        sample, m0 = near_focal_sample(rng), random_preshape(12, rng)
        try:
            cs.critical_radius(sample, m0)
            outcomes["solved"] += 1
        except cs.FocalDistributionError:
            outcomes["focal"] += 1
    assert outcomes["solved"] > 900
