"""Import budget: scipy stays off the import path of every command except ``test``.

scipy costs several times the rest of a command's import, so only the
neighborhood test may load it (``scipy.special``, for the normal quantiles),
and reading a PGM mask must not load ``scipy.ndimage``.  Each check runs in a
fresh interpreter, where ``sys.modules`` shows what was imported.
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
# imports and after each command, its exit status and the scipy modules loaded
CHILD = """
import json, sys

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


def run_child(tmp_path, commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_is_loaded_by_the_test_command_only(tmp_path):
    man = write_masks(tmp_path)
    common = ["--manifest", str(man), "--out", str(tmp_path / "out")]
    m0 = str(tmp_path / "m1.pgm")
    report = run_child(
        tmp_path,
        [
            ["mean", *common],
            ["plot", *common],
            ["approx", *common, "--k-grid", "8,12", "--repeats", "2"],
            ["bootstrap", *common, "--B", "50"],
            ["test", "--delta", "0.05", *common, "--m0", m0],
            ["test", "--solve-delta", *common, "--m0", m0],
        ],
    )
    steps = [step for step, _, _ in report]
    assert steps == [
        "import contourstat",
        "import contourstat.cli",
        "mean --manifest",
        "plot --manifest",
        "approx --manifest",
        "bootstrap --manifest",
        "test --delta",
        "test --solve-delta",
    ]
    for step, status, modules in report:
        assert status == 0, step
        assert not any(m.startswith("scipy.ndimage") for m in modules), step
        if not step.startswith("test"):
            assert modules == [], step
    # the test still takes its normal quantiles from scipy
    assert "scipy.special" in report[-1][2]
