"""Import budget: the package runs on numpy alone, and no command loads scipy.

scipy costs several times the rest of a command's import; the neighborhood
test takes its normal CDF and quantile from ``contourstat._normal`` instead.
Each check runs in a fresh interpreter, where ``sys.modules`` shows what was
imported, and once more with scipy made unimportable.  This file imports
neither scipy nor hypothesis, so it runs where only numpy and pytest are
installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import contourstat as cs

SRC = Path(cs.__file__).resolve().parent.parent

# runs the commands given as a JSON list of argv lists and prints, after the
# imports and after each command, its exit status and the scipy modules loaded;
# with a second argument "refuse", every import of scipy fails first
CHILD = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r} (refused)", name=name)
        return None

if sys.argv[2:] == ["refuse"]:
    sys.meta_path.insert(0, RefuseScipy())

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import contourstat
report = [["import contourstat", 0, scipy_modules()]]
from contourstat.cli import main
report.append(["import contourstat.cli", 0, scipy_modules()])
for argv in json.loads(sys.argv[1]):
    status = main(argv)
    report.append([" ".join(argv[:2]), status, scipy_modules()])
print(json.dumps(report))
"""


def write_masks(tmp_path):
    """Four filled ellipses of different aspect, two as P5 and two as P2, and their manifest."""
    yy, xx = np.mgrid[0:40, 0:40]
    lines = ["seed 5", "k 8"]
    for i, (a, b) in enumerate([(15, 9), (14, 10), (16, 8), (13, 11)]):
        mask = ((xx - 20) / a) ** 2 + ((yy - 20) / b) ** 2 <= 1.0
        f = tmp_path / f"m{i}.pgm"
        if i % 2:
            rows = "\n".join(" ".join(str(255 * int(v)) for v in row) for row in mask)
            f.write_text(f"P2\n40 40\n255\n{rows}\n", encoding="ascii")
        else:
            f.write_bytes(b"P5\n40 40\n255\n" + (mask.astype(np.uint8) * 255).tobytes())
        lines.append(f"contour m{i} {f.name}")
    man = tmp_path / "masks.manifest"
    man.write_text("\n".join(lines) + "\n")
    return man


def run_child(tmp_path, commands, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands), *flags],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def all_commands(tmp_path):
    man = write_masks(tmp_path)
    common = ["--manifest", str(man), "--out", str(tmp_path / "out")]
    m0 = str(tmp_path / "m1.pgm")
    return [
        ["mean", *common],
        ["plot", *common],
        ["approx", *common, "--k-grid", "8,12", "--repeats", "2"],
        ["bootstrap", *common, "--B", "50"],
        ["test", "--delta", "0.05", *common, "--m0", m0],
        ["test", "--solve-delta", *common, "--m0", m0],
    ]


STEPS = [
    "import contourstat",
    "import contourstat.cli",
    "mean --manifest",
    "plot --manifest",
    "approx --manifest",
    "bootstrap --manifest",
    "test --delta",
    "test --solve-delta",
]


def assert_every_step_succeeds_without_scipy(report):
    assert [step for step, _, _ in report] == STEPS
    for step, status, modules in report:
        assert status == 0, step
        assert modules == [], step


def test_no_command_loads_scipy(tmp_path):
    assert_every_step_succeeds_without_scipy(run_child(tmp_path, all_commands(tmp_path)))


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    report = run_child(tmp_path, all_commands(tmp_path), "refuse")
    assert_every_step_succeeds_without_scipy(report)


PUBLIC_NAMES = {
    "__version__",
    "Contour",
    "ParamCurve",
    "StoppingTimes",
    "canonicalize",
    "select_stopping_times",
    "evaluate",
    "relative_length_error",
    "build_correspondence",
    "DEFAULT_GAP_TOL",
    "Preshape",
    "EigenSystem",
    "preshape",
    "chord_distance",
    "register_vertex_order",
    "mean_matrix",
    "eigensystem",
    "extrinsic_mean",
    "extrinsic_covariance",
    "approximation_errors",
    "TestResult",
    "squared_shape_distance",
    "tangent_offset",
    "studentizing_variance",
    "neighborhood_test",
    "critical_radius",
    "BootstrapRegion",
    "resample_mean",
    "bootstrap_region",
    "align_rotation",
    "SampleManifest",
    "read_contour",
    "write_contour",
    "parse_manifest",
    "load_sample",
    "read_curves",
    "PathStyle",
    "svg_render",
    "ContourStatError",
    "DegenerateContourError",
    "FocalDistributionError",
    "DegenerateVarianceError",
    "ParseError",
    "ManifestError",
}


def test_public_names_are_the_modules_all_lists_once():
    from contourstat import bootstrap, contour, errors, inference, ingestion, shape_space, svg

    modules = (contour, shape_space, inference, bootstrap, ingestion, svg, errors)
    assert cs.__all__ == ["__version__"] + [name for m in modules for name in m.__all__]
    assert len(set(cs.__all__)) == len(cs.__all__)
    assert all(hasattr(cs, name) for name in cs.__all__)
    assert set(cs.__all__) == PUBLIC_NAMES
