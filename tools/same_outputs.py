"""Check that two checkouts give the same outputs on the benchmark's inputs.

Usage (from the repository root)::

    python tools/same_outputs.py --base PATH_TO_OTHER_CHECKOUT --seed 1

For every workload in ``bench/workloads.py`` it generates the inputs of
``--seed`` once, then runs each step of the benchmark's command sequence
(``bench/run.py``: approx, mean, test ``--delta``, test ``--solve-delta``,
bootstrap, bootstrap with ``SHAPE_THREADS``, plot) as ``python -m
contourstat`` against the ``src/`` of this checkout and of ``--base``.  Both
workloads share their stopping times, so one more pass runs mean, both
tests, bootstrap (B = 50) and plot on the shared-k300 files under a
``union-of-times`` manifest at ``k 40``, a dimension of about 1,200.  A last
pass rewrites every masks-k8 mask and its m0 as P2, with a comment line
between rows, and runs approx, mean, test ``--solve-delta`` and plot on them.
It compares the exit codes, stdout and stderr (with the output directory
replaced by ``<out>``) and the bytes of every file written, prints each
difference, and exits 1 if there is any.  Files under ``bench/`` are only
imported.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402  (pins the BLAS thread variables before numpy loads)
from workloads import WORKLOADS, generate  # noqa: E402

import numpy as np  # noqa: E402


def outputs(src: Path, step: str, argv: list[str], out: Path) -> dict:
    """Exit code, normalized stdout/stderr and written files of one command."""
    env = dict(os.environ, PYTHONPATH=str(src))  # importing run dropped SHAPE_THREADS
    if step == "bootstrap-par":
        env["SHAPE_THREADS"] = str(run.NPROC)
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-m", "contourstat", *argv], env=env, capture_output=True, text=True
    )
    return {
        "exit code": proc.returncode,
        "stdout": proc.stdout.replace(str(out), "<out>"),
        "stderr": proc.stderr.replace(str(out), "<out>"),
        **{f"file {p.name}": p.read_bytes() for p in sorted(out.iterdir())},
    }


# every step whose result depends on the correspondence: not approx, which
# takes its own k-gons, nor bootstrap-par, which times bootstrap again
UNION_STEPS = ("mean", "test", "solve-delta", "bootstrap", "plot")


def union_of_times(inputs, seed: int, directory: Path):
    """``inputs`` with a union-of-times manifest at k 40 over the same contour files."""
    lines = [f"seed {seed}", "k 40", "correspondence union-of-times"]
    lines += [f"contour c{i:02d} {p.resolve()}" for i, p in enumerate(inputs.contours)]
    directory.mkdir(parents=True)
    manifest = directory / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="ascii")
    return replace(inputs, manifest=manifest)


# approx and the sample commands read every mask once, and solve-delta the m0 too
P2_STEPS = ("approx", "mean", "solve-delta", "plot")
# magic, width, height and maxval of a generated mask, then one whitespace byte
PGM_HEADER = re.compile(rb"(P[25])\s+(?:#[^\n]*\n)*(\d+)\s+(\d+)\s+(\d+)\s")


def all_p2(inputs, directory: Path):
    """``inputs`` with every mask and the m0 rewritten as P2, a comment line between rows."""
    directory.mkdir(parents=True)
    for path in (*inputs.contours, inputs.m0):
        data = path.read_bytes()
        header = PGM_HEADER.match(data)
        magic, width, height, maxval = header.groups()
        raster = data[header.end() :]
        values = np.frombuffer(raster, np.uint8) if magic == b"P5" else raster.split()
        rows = np.array(values, int).reshape(int(height), int(width)).tolist()
        rows = [" ".join(map(str, row)) for row in rows]
        text = b"P2\n%s %s\n%s\n" % (width, height, maxval) + "\n# next row\n".join(rows).encode()
        (directory / path.name).write_bytes(text + b"\n")
    # the manifest names its contours relative to itself
    (directory / inputs.manifest.name).write_bytes(inputs.manifest.read_bytes())
    return replace(
        inputs,
        directory=directory,
        manifest=directory / inputs.manifest.name,
        m0=directory / inputs.m0.name,
        contours=tuple(directory / p.name for p in inputs.contours),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the other checkout")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve() / "src", "head": ROOT / "src"}
    for side, src in sides.items():  # a side that imported another checkout would compare nothing
        where = subprocess.run(
            [sys.executable, "-c", "import contourstat; print(contourstat.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(src.resolve()):
            print(f"{side}: contourstat imported from {where or 'nowhere'}, not from {src}")
            return 2
    differences = compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {}
        for name, w in WORKLOADS.items():
            inputs[name] = generate(w, args.seed, Path(tmp) / name / "inputs")
        all_steps = [step for step, _ in run.STEPS]
        passes = [(name, w, inputs[name], all_steps) for name, w in WORKLOADS.items()]
        shared = "shared-k300"
        union = union_of_times(inputs[shared], args.seed, Path(tmp) / "union-of-times")
        passes.append(("union-of-times", replace(WORKLOADS[shared], B=50), union, UNION_STEPS))
        masks = "masks-k8"
        p2 = all_p2(inputs[masks], Path(tmp) / "all-p2")
        passes.append(("all-P2", WORKLOADS[masks], p2, P2_STEPS))
        for name, w, step_inputs, steps in passes:
            for step in steps:
                got = {}
                for side, src in sides.items():
                    out = Path(tmp) / name / side / step
                    got[side] = outputs(src, step, run.step_argv(step, w, step_inputs, out), out)
                compared += 1
                for key in sorted(got["base"].keys() | got["head"].keys()):
                    if got["base"].get(key) != got["head"].get(key):
                        differences += 1
                        print(f"{name} {step}: {key} differs")
    print(f"{differences} differences in {compared} commands (seed {args.seed})")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
